#[global_allocator]
static ALLOC: benchmark::alloc::CountingAlloc = benchmark::alloc::CountingAlloc;

fn main() {
    benchmark::main();
}
