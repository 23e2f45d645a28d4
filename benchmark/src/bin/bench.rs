fn main() {
    benchmark::main();
}
