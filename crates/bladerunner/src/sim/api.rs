//! What a driver calls: construction, accessors, fixture and workload
//! schedulers, and fault injection. Nothing here runs an event; each
//! scheduler puts one on the queue.

use brass::AppId;
use burst::flow::FlowWindow;
use burst::frame::StreamId;
use burst::json::Json;
use edge::device::Device;
use edge::pop::Pop;
use pylon::PylonCluster;
use simkit::fxhash::FxHashMap;
use simkit::queue::EventQueue;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceLedger;
use tao::Tao;
use was::service::WebApplicationServer;

use super::ev::{Ev, EventStats};
use super::faults::{fresh_host, fresh_proxy, HEARTBEAT_INTERVAL};
use super::fleet::{DeviceSlot, DeviceState, ParkScratch};
use super::SystemSim;
use crate::config::{LinkClass, SystemConfig};
use crate::latency::LatencyModel;
use crate::metrics::SystemMetrics;

impl SystemSim {
    /// Builds a system with its heartbeat and metrics ticks armed.
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        let rng = DetRng::new(seed);
        let engine_rng = rng.fork(0x5A4D_0000);
        let hosts = (0..config.brass_hosts).map(fresh_host).collect();
        let proxies = (0..config.proxies)
            .map(|i| fresh_proxy(&config, i))
            .collect();
        let proxy_ids: Vec<u32> = (0..config.proxies).collect();
        let pops: Vec<Pop> = (0..config.pops)
            .map(|i| Pop::new(i, proxy_ids.clone()))
            .collect();
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + HEARTBEAT_INTERVAL, Ev::HeartbeatTick);
        SystemSim {
            latency: LatencyModel::table3(),
            rng,
            engine_rng,
            queue,
            now: SimTime::ZERO,
            next_metrics_tick: SimTime::ZERO + config.metrics_interval,
            was: WebApplicationServer::new(Tao::new(config.tao.clone())),
            pylon: PylonCluster::new(config.pylon.clone()),
            hosts,
            proxies,
            pops,
            host_up: vec![true; config.brass_hosts as usize],
            proxy_up: vec![true; config.proxies as usize],
            host_busy_until: vec![SimTime::ZERO; config.brass_hosts as usize],
            devices: simkit::collections::IdMap::new(),
            ledger: TraceLedger::with_retention(config.trace_retention),
            pending_backfill: Default::default(),
            pylon_delivered: FxHashMap::default(),
            sub_started: FxHashMap::default(),
            metrics: SystemMetrics::new(config.metrics_horizon, config.metrics_interval),
            event_stats: EventStats::default(),
            decisions_at_tick: 0,
            langs: Vec::new(),
            fingerprints: Vec::new(),
            tick_index: 0,
            snapshot_every: 0,
            snapshots: Vec::new(),
            driver_blob: Vec::new(),
            evlog: None,
            host_fx: Vec::new(),
            proxy_fx: Vec::new(),
            pop_fx: Vec::new(),
            device_out: Vec::new(),
            park: ParkScratch::default(),
            served: Default::default(),
            config,
        }
    }

    /// Does nothing: there is one event loop, on the caller's thread. The
    /// name stays only because `benchmark/src/rep.rs` still calls it.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// The WAS (for fixture setup: videos, threads, friendships).
    pub fn was_mut(&mut self) -> &mut WebApplicationServer {
        &mut self.was
    }

    /// The Pylon cluster (failure injection, counters).
    pub fn pylon(&self) -> &PylonCluster {
        &self.pylon
    }

    /// Mutable Pylon access (tests probe quorum topology directly).
    pub fn pylon_mut(&mut self) -> &mut PylonCluster {
        &mut self.pylon
    }

    /// The configuration this world was built under.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }

    /// The hop-ledger of every update traced through this run.
    pub fn trace_ledger(&self) -> &TraceLedger {
        &self.ledger
    }

    /// Per-subsystem counts of events handled so far.
    pub fn event_stats(&self) -> &EventStats {
        &self.event_stats
    }

    /// Total BRASS delivery decisions across hosts.
    pub fn total_decisions(&self) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.total_app_counters().decisions)
            .sum()
    }

    /// Total proxy-induced stream reconnects across proxies.
    pub fn total_proxy_reconnects(&self) -> u64 {
        self.proxies.iter().map(|p| p.induced_reconnects()).sum()
    }

    /// A device's current state (testing). Returns an owned copy: the
    /// resident form may be the compact hibernation blob, which is read
    /// back here ([`Device::rehydrate`]) without disturbing the simulation.
    pub fn device(&self, device: u64) -> Option<Device> {
        self.devices.get(device).map(|d| match &d.slot {
            DeviceSlot::Live(dev) => dev.clone(),
            DeviceSlot::Parked { blob, .. } => Device::rehydrate(device, blob),
        })
    }

    /// Fleet hibernation census: `(parked, total)` devices. Parked devices
    /// hold their whole protocol state in one compact blob, written
    /// through the snapshot codec.
    pub fn hibernation_census(&self) -> (usize, usize) {
        let parked = self
            .devices
            .values()
            .filter(|d| matches!(d.slot, DeviceSlot::Parked { .. }))
            .count();
        (parked, self.devices.len())
    }

    /// The live heap bytes each layer owns, as `(layer, bytes)` rows:
    /// consumes the system, dropping one group of fields per row in the
    /// rows' order and reading the counting allocator's live bytes around
    /// each drop. Bytes two layers share (a payload's, say) count toward
    /// the later row; every field is in exactly one row. Every row reads 0
    /// unless the binary installed [`CountingAlloc`].
    ///
    /// [`CountingAlloc`]: simkit::alloc::CountingAlloc
    pub fn heap_by_layer(self) -> Vec<(&'static str, usize)> {
        fn freed<T>(group: T) -> usize {
            let before = simkit::alloc::live_bytes();
            drop(group);
            before.saturating_sub(simkit::alloc::live_bytes())
        }
        let SystemSim {
            config,
            latency,
            rng,
            engine_rng,
            queue,
            now: _,
            next_metrics_tick: _,
            was,
            pylon,
            hosts,
            proxies,
            pops,
            host_up,
            proxy_up,
            host_busy_until,
            devices,
            ledger,
            pending_backfill,
            pylon_delivered,
            sub_started,
            metrics,
            event_stats,
            decisions_at_tick: _,
            langs,
            fingerprints,
            tick_index: _,
            snapshot_every: _,
            snapshots,
            driver_blob,
            evlog,
            host_fx,
            proxy_fx,
            pop_fx,
            device_out,
            park,
            served,
        } = self;
        vec![
            ("ledger", freed(ledger)),
            ("metrics", freed((metrics, event_stats, fingerprints))),
            ("queue", freed(queue)),
            ("was", freed(was)),
            ("pylon", freed(pylon)),
            ("brass", freed((hosts, host_up, host_busy_until))),
            ("proxies", freed((proxies, proxy_up))),
            ("pops", freed(pops)),
            ("devices", freed((devices, langs))),
            (
                "engine",
                freed((
                    (config, latency, rng, engine_rng),
                    (pending_backfill, pylon_delivered, sub_started),
                    (snapshots, driver_blob, evlog),
                    (host_fx, proxy_fx, pop_fx, device_out, park, served),
                )),
            ),
        ]
    }

    /// Whether a BRASS host is currently up (testing / fault plans).
    pub fn host_is_up(&self, host: usize) -> bool {
        self.host_up.get(host).copied().unwrap_or(false)
    }

    /// Whether a reverse proxy is currently up (testing / fault plans).
    pub fn proxy_is_up(&self, proxy: usize) -> bool {
        self.proxy_up.get(proxy).copied().unwrap_or(false)
    }

    /// The `(device, sid)` keys a BRASS host currently serves, sorted.
    pub fn host_stream_keys(&self, host: usize) -> Vec<(u64, StreamId)> {
        let mut keys: Vec<(u64, StreamId)> = self
            .hosts
            .get(host)
            .map(|h| h.iter_stream_keys().collect())
            .unwrap_or_default();
        keys.sort_unstable();
        keys
    }

    /// Current simulated time (the high-water mark of `run_until`).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The master RNG, for workload generators and fixture setup. The
    /// engine never draws from it after construction.
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Fixture and workload helpers.
    // ------------------------------------------------------------------

    /// Creates a user in the WAS plus their device at the edge.
    /// Returns the shared id (user uid == device id).
    pub fn create_user_device(&mut self, name: &str, lang: &str) -> u64 {
        let uid = self.was_mut().create_user(name, lang);
        let weights: Vec<f64> = self.config.link_mix.iter().map(|(_, p)| *p).collect();
        let cat = simkit::dist::Categorical::new(&weights);
        let link = self.config.link_mix[cat.sample_index(&mut self.rng)].0;
        let lang = self.intern_lang(lang);
        self.devices.push(
            uid,
            DeviceState {
                slot: DeviceSlot::Live(Device::new(uid)),
                link,
                lang,
                connected: true,
                drop_streak: 0,
                last_drop_at: SimTime::ZERO,
                next_arrival: SimTime::ZERO,
                flow: FlowWindow::new(self.config.egress_window_bytes),
                degraded_sids: Vec::new(),
                inflight_frames: 0,
                proxy: None,
            },
        );
        uid
    }

    /// Interns a header language into the u16 id table (the fleet speaks
    /// a handful of languages; a per-device heap `String` would repeat
    /// each of them a million times over).
    fn intern_lang(&mut self, lang: &str) -> u16 {
        if let Some(i) = self.langs.iter().position(|l| l == lang) {
            return i as u16;
        }
        assert!(self.langs.len() < u16::MAX as usize, "lang table overflow");
        self.langs.push(lang.to_owned());
        (self.langs.len() - 1) as u16
    }

    /// Schedules a subscription to `gql` under the device's viewer id and
    /// language.
    fn subscribe_gql(&mut self, at: SimTime, device: u64, gql: String) {
        let lang = self
            .devices
            .get(device)
            .and_then(|d| self.langs.get(d.lang as usize))
            .map_or("en", String::as_str);
        let header = Json::obj([
            ("viewer", Json::from(device)),
            ("lang", Json::from(lang)),
            ("gql", Json::from(gql)),
        ]);
        self.queue
            .schedule(at, Ev::DeviceSubscribe { device, header });
    }

    /// Schedules a LiveVideoComments subscription.
    pub fn subscribe_lvc(&mut self, at: SimTime, device: u64, video: u64) {
        self.subscribe_gql(
            at,
            device,
            format!("subscription {{ liveVideoComments(videoId: {video}) }}"),
        );
    }

    /// Schedules a TypingIndicator subscription.
    pub fn subscribe_typing(&mut self, at: SimTime, device: u64, thread: u64, counterparty: u64) {
        self.subscribe_gql(at, device, format!(
                "subscription {{ typingIndicator(threadId: {thread}, counterpartyId: {counterparty}) }}"
            ));
    }

    /// Schedules an ActiveStatus subscription.
    pub fn subscribe_active_status(&mut self, at: SimTime, device: u64) {
        self.subscribe_gql(at, device, "subscription { activeStatus }".to_owned());
    }

    /// Schedules a Stories tray subscription.
    pub fn subscribe_stories(&mut self, at: SimTime, device: u64) {
        self.subscribe_gql(at, device, "subscription { storiesTray }".to_owned());
    }

    /// Schedules a NewsFeedPostLikes subscription.
    pub fn subscribe_likes(&mut self, at: SimTime, device: u64, post: u64) {
        self.subscribe_gql(
            at,
            device,
            format!("subscription {{ postLikes(postId: {post}) }}"),
        );
    }

    /// Schedules a like on a post.
    pub fn like_post(&mut self, at: SimTime, device: u64, post: u64) {
        let gql = format!("mutation {{ likePost(postId: {post}, uid: {device}) {{ ok }} }}");
        self.schedule_mutation(at, device, gql, AppId::Likes);
    }

    /// Schedules a WebsiteNotifications subscription.
    pub fn subscribe_notifications(&mut self, at: SimTime, device: u64) {
        self.subscribe_gql(at, device, "subscription { notifications }".to_owned());
    }

    /// Schedules a Messenger mailbox subscription.
    pub fn subscribe_mailbox(&mut self, at: SimTime, device: u64) {
        self.subscribe_gql(
            at,
            device,
            format!("subscription {{ mailbox(uid: {device}) }}"),
        );
    }

    /// Schedules a stream cancellation.
    pub fn cancel_stream(&mut self, at: SimTime, device: u64, sid: StreamId) {
        self.queue.schedule(at, Ev::DeviceCancel { device, sid });
    }

    fn schedule_mutation(&mut self, at: SimTime, device: u64, gql: String, app: AppId) {
        // Device → POP → edge → WAS; sampled as one compound delay.
        let link = self
            .devices
            .get(device)
            .map(|d| d.link)
            .unwrap_or(LinkClass::Mobile);
        let delay =
            self.latency.last_mile(link, &mut self.rng) + self.latency.edge_to_was(&mut self.rng);
        self.queue
            .schedule(at + delay, Ev::WasMutationExec { gql, app });
    }

    /// Schedules a live-video comment post.
    pub fn post_comment(&mut self, at: SimTime, device: u64, video: u64, text: &str) {
        let gql = format!(
            r#"mutation {{ postComment(videoId: {video}, authorId: {device}, text: "{text}") {{ id }} }}"#
        );
        self.schedule_mutation(at, device, gql, AppId::Lvc);
    }

    /// Schedules a typing-state change.
    pub fn set_typing(&mut self, at: SimTime, device: u64, thread: u64, typing: bool) {
        let gql = format!(
            "mutation {{ setTyping(threadId: {thread}, uid: {device}, typing: {typing}) {{ ok }} }}"
        );
        self.schedule_mutation(at, device, gql, AppId::Typing);
    }

    /// Schedules an online-status refresh.
    pub fn set_online(&mut self, at: SimTime, device: u64) {
        let gql = format!("mutation {{ setOnline(uid: {device}) {{ ok }} }}");
        self.schedule_mutation(at, device, gql, AppId::ActiveStatus);
    }

    /// Schedules a story creation.
    pub fn create_story(&mut self, at: SimTime, device: u64, media: &str) {
        let gql =
            format!(r#"mutation {{ createStory(authorId: {device}, media: "{media}") {{ id }} }}"#);
        self.schedule_mutation(at, device, gql, AppId::Stories);
    }

    /// Schedules a Messenger message send.
    pub fn send_message(&mut self, at: SimTime, device: u64, thread: u64, text: &str) {
        let gql = format!(
            r#"mutation {{ sendMessage(threadId: {thread}, fromId: {device}, text: "{text}") {{ id }} }}"#
        );
        self.schedule_mutation(at, device, gql, AppId::Messenger);
    }

    // ------------------------------------------------------------------
    // Failure injection.
    // ------------------------------------------------------------------

    /// Schedules a last-mile connection drop for a device.
    pub fn schedule_device_drop(&mut self, at: SimTime, device: u64) {
        self.queue.schedule(at, Ev::DeviceDrop { device });
    }

    /// Schedules a BRASS-initiated redirect of one stream to another host
    /// (§3.5 "Redirects"; used for load rebalancing and consolidation).
    pub fn schedule_brass_redirect(
        &mut self,
        at: SimTime,
        host: usize,
        device: u64,
        sid: StreamId,
        to_host: usize,
    ) {
        self.queue.schedule(
            at,
            Ev::BrassRedirect {
                host,
                device,
                sid,
                to_host,
            },
        );
    }

    /// Schedules a BRASS host drain/upgrade lasting `duration`.
    pub fn schedule_brass_upgrade(&mut self, at: SimTime, host: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::BrassUpgrade { host });
        self.queue
            .schedule(at + duration, Ev::BrassHostBack { host });
    }

    /// Schedules a Pylon subscriber-KV node outage of `duration`.
    pub fn schedule_pylon_outage(&mut self, at: SimTime, node: u64, duration: SimDuration) {
        self.queue.schedule(at, Ev::PylonNode { node, up: false });
        self.queue
            .schedule(at + duration, Ev::PylonNode { node, up: true });
    }

    /// Schedules an *unplanned* BRASS host crash lasting `duration`.
    ///
    /// Unlike [`Self::schedule_brass_upgrade`], nothing is signalled at
    /// crash time: proxies discover the death through missed heartbeat
    /// pongs and only then repair its streams (axiom 2).
    pub fn schedule_brass_crash(&mut self, at: SimTime, host: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::BrassCrash { host });
        self.queue
            .schedule(at + duration, Ev::BrassRecover { host });
    }

    /// Schedules a reverse-proxy outage (e.g. a regional PoP-to-DC link
    /// cut) lasting `duration`.
    pub fn schedule_proxy_outage(&mut self, at: SimTime, proxy: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::ProxyOutage { proxy });
        self.queue.schedule(at + duration, Ev::ProxyBack { proxy });
    }

    /// Schedules a *silent* device drop: the link dies without a FIN, so
    /// the POP learns only via heartbeats while the device reconnects on
    /// its own backoff schedule.
    pub fn schedule_device_vanish(&mut self, at: SimTime, device: u64) {
        self.queue.schedule(at, Ev::DeviceVanish { device });
    }
}
