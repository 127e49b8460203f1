//! The simulation engine: state, workload processes and the run loop.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rdht_hashing::{HashFamily, Key};
use rdht_metrics::{Registry, TraceSink};
use rdht_overlay::chord::{ChordConfig, ChordNetwork};
use rdht_overlay::NodeId;

use rdht_core::ums;

use crate::access::SimAccess;
use crate::algo::Algorithm;
use crate::config::SimConfig;
use crate::metrics::{QuerySample, RunStats, SimulationReport};
use crate::network::NetworkModel;
use crate::peer::PeerState;
use crate::rng::Exponential;
use crate::scheduler::{Event, EventQueue};

/// A full simulation run: the overlay, the per-peer state of the three
/// algorithm universes, the workload processes and the metric collection.
///
/// Construction bootstraps a converged Chord ring of `num_peers` peers and
/// performs one initial insert of every data item; [`Simulation::run`] then
/// processes churn, update, stabilization and query events until the
/// configured duration and returns a [`SimulationReport`].
pub struct Simulation {
    pub(crate) config: SimConfig,
    pub(crate) family: HashFamily,
    pub(crate) network: NetworkModel,
    pub(crate) overlay: ChordNetwork,
    pub(crate) peers: HashMap<NodeId, PeerState>,
    pub(crate) keys: Vec<Key>,
    /// Ring position of each workload key under each replication hash
    /// function (`key_positions[key_index][hash_index]`). Positions depend
    /// only on the hash family, so they are computed once at construction
    /// and reused by every update, query and inspection event.
    pub(crate) key_positions: Vec<Box<[u64]>>,
    /// Ring position of each workload key under the timestamping function.
    pub(crate) ts_positions: Vec<u64>,
    /// Sequence number of the latest update applied to each key.
    pub(crate) update_sequence: Vec<u64>,
    /// Payload of the latest committed update for each key (ground truth for
    /// the currency checks).
    pub(crate) latest_payload: Vec<Vec<u8>>,
    pub(crate) rng: StdRng,
    pub(crate) queue: EventQueue,
    pub(crate) stats: RunStats,
    samples: Vec<QuerySample>,
    /// When attached, every processed event is recorded as a chrome-trace
    /// event with its **simulated** timestamp — `None` by default, so runs
    /// carry no instrumentation and reports stay bit-for-bit deterministic.
    trace: Option<TraceSink>,
    /// Deterministic trace id of the next traced query span. Derived from a
    /// plain counter — **never** from the workload RNG — and only advanced
    /// inside the traced branch, so it cannot perturb an untraced run and a
    /// traced run with the same seed always assigns the same ids.
    trace_query_seq: u64,
}

impl Simulation {
    /// Builds a simulation from a configuration. Panics if the configuration
    /// is invalid (see [`SimConfig::validate`]).
    pub fn new(config: SimConfig) -> Self {
        if let Err(problem) = config.validate() {
            panic!("invalid simulation configuration: {problem}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let family = HashFamily::new(config.num_replicas, config.seed ^ 0x00ff_00ff_00ff_00ff);
        let network = config.network.model();

        // Bootstrap a converged ring with `num_peers` random identifiers.
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < config.num_peers {
            ids.insert(NodeId(rng.gen()));
        }
        let chord_config = ChordConfig {
            successor_list_len: config.successor_list_len,
            finger_bits: 64,
            fingers_fixed_per_round: config.fingers_fixed_per_round,
            max_routing_steps: 512,
        };
        let overlay = ChordNetwork::bootstrap(ids.iter().copied(), chord_config);
        let peers = ids.iter().map(|id| (*id, PeerState::new())).collect();

        let keys: Vec<Key> = (0..config.num_keys)
            .map(|i| Key::new(format!("data-{i}")))
            .collect();
        let key_positions: Vec<Box<[u64]>> = keys
            .iter()
            .map(|key| {
                family
                    .replication_functions()
                    .iter()
                    .map(|h| h.eval(key))
                    .collect()
            })
            .collect();
        let ts_positions: Vec<u64> = keys.iter().map(|key| family.eval_timestamp(key)).collect();
        let update_sequence = vec![0; config.num_keys];
        let latest_payload = vec![Vec::new(); config.num_keys];

        Simulation {
            family,
            network,
            overlay,
            peers,
            keys,
            key_positions,
            ts_positions,
            update_sequence,
            latest_payload,
            rng,
            queue: EventQueue::new(),
            stats: RunStats::default(),
            samples: Vec::new(),
            trace: None,
            trace_query_seq: 0,
            config,
        }
    }

    /// Attaches a chrome-trace sink: every event the run loop processes is
    /// recorded at its simulated time (virtual seconds mapped to trace
    /// microseconds), and each measured query additionally records one
    /// complete event per algorithm whose duration is the simulated
    /// response time. Attach before [`Simulation::run`]; render the result
    /// with [`TraceSink::render_chrome_trace`] or write it to a
    /// `trace.json` loadable in `chrome://tracing` / Perfetto.
    ///
    /// Tracing never touches the workload's random sequence, so a traced
    /// run returns exactly the report an untraced one does.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shared hash family.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Number of live peers (constant over a run by construction).
    pub fn live_peers(&self) -> usize {
        self.overlay.len()
    }

    /// The workload keys.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Sums the KTS work counters of every live peer in one UMS universe
    /// (`None` for BRK, which has no timestamping service). Peers that
    /// already departed took their counters with them, so this measures the
    /// work the *surviving* population performed — the quantity the direct
    /// vs crash-and-indirect comparison reads off after a churn run.
    pub fn total_kts_stats(&self, algorithm: Algorithm) -> Option<rdht_core::kts::KtsStats> {
        use rdht_core::kts::KtsStats;
        let mut total = KtsStats::default();
        let mut any = false;
        for peer in self.peers.values() {
            let kts = peer.kts(algorithm)?;
            let stats = kts.stats();
            total.timestamps_generated += stats.timestamps_generated;
            total.last_ts_served += stats.last_ts_served;
            total.counters_received_directly += stats.counters_received_directly;
            total.indirect_initializations += stats.indirect_initializations;
            total.corrections += stats.corrections;
            total.recovery_floor_seeds += stats.recovery_floor_seeds;
            any = true;
        }
        any.then_some(total)
    }

    /// Picks a uniformly random live peer without materializing the member
    /// list (the old `alive_ids()` call cloned the whole ring — one `O(n)`
    /// `Vec` per event at 10k peers).
    pub(crate) fn random_alive_peer(&mut self) -> Option<NodeId> {
        let count = self.overlay.alive_count();
        if count == 0 {
            return None;
        }
        let index = self.rng.gen_range(0..count);
        self.overlay.sample_alive(index)
    }

    /// Runs the simulation to completion and returns the collected report.
    pub fn run(&mut self) -> SimulationReport {
        self.initial_load();
        self.schedule_initial_events();

        while let Some((time, event)) = self.queue.pop() {
            if time > self.config.duration {
                break;
            }
            if let Some(trace) = &self.trace {
                trace.instant_at(event_name(&event), TRACE_PID_EVENTS, 0, trace_us(time));
            }
            match event {
                Event::PeerDeparture => self.handle_departure(),
                Event::Join => self.handle_churn_join(),
                Event::GracefulLeave => self.handle_churn_graceful_leave(),
                Event::Crash => self.handle_churn_crash(),
                Event::UpdateData { key_index } => self.handle_update(key_index),
                Event::Stabilize => self.handle_stabilize(),
                Event::PeriodicInspection => self.handle_inspection(),
                Event::Query => self.handle_query(),
            }
        }

        SimulationReport {
            samples: std::mem::take(&mut self.samples),
            stats: self.stats,
            num_peers: self.config.num_peers,
            num_replicas: self.config.num_replicas,
            duration: self.config.duration,
        }
    }

    /// Inserts every data item once so that queries issued early in the run
    /// have something to retrieve (the paper's workload starts from a
    /// populated DHT).
    fn initial_load(&mut self) {
        for key_index in 0..self.keys.len() {
            self.apply_update(key_index);
        }
        // The initial population is not part of the measured workload.
        self.stats.updates = 0;
    }

    fn schedule_initial_events(&mut self) {
        let duration = self.config.duration;
        // Churn process.
        if self.config.churn_rate_per_second > 0.0 && self.config.num_peers > 2 {
            let inter = Exponential::new(self.config.churn_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_at(inter, Event::PeerDeparture);
        }
        // Uncompensated membership processes (elastic population). Disabled
        // at the default rate of 0.0, so runs without them consume exactly
        // the same random sequence as before these events existed.
        if self.config.join_rate_per_second > 0.0 {
            let inter = Exponential::new(self.config.join_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_at(inter, Event::Join);
        }
        if self.config.graceful_leave_rate_per_second > 0.0 && self.config.num_peers > 2 {
            let inter =
                Exponential::new(self.config.graceful_leave_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_at(inter, Event::GracefulLeave);
        }
        if self.config.crash_rate_per_second > 0.0 && self.config.num_peers > 2 {
            let inter = Exponential::new(self.config.crash_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_at(inter, Event::Crash);
        }
        // Update process per data item.
        if self.config.update_rate_per_hour > 0.0 {
            let rate_per_second = self.config.update_rate_per_hour / 3600.0;
            for key_index in 0..self.keys.len() {
                let inter = Exponential::new(rate_per_second).sample(&mut self.rng);
                self.queue
                    .schedule_at(inter, Event::UpdateData { key_index });
            }
        }
        // Stabilization rounds.
        if self.config.stabilize_interval > 0.0 {
            self.queue
                .schedule_at(self.config.stabilize_interval, Event::Stabilize);
        }
        // Periodic-inspection rounds (Section 4.2.2).
        if self.config.inspection_interval > 0.0 {
            self.queue
                .schedule_at(self.config.inspection_interval, Event::PeriodicInspection);
        }
        // Queries at uniformly random times.
        for _ in 0..self.config.queries {
            let t = self.rng.gen_range(0.0..duration);
            self.queue.schedule_at(t, Event::Query);
        }
    }

    fn handle_stabilize(&mut self) {
        self.overlay.stabilize();
        self.stats.stabilize_rounds += 1;
        self.queue
            .schedule_in(self.config.stabilize_interval, Event::Stabilize);
    }

    /// Periodic inspection (Section 4.2.2): the current responsible of
    /// timestamping for each key compares its counter with the largest
    /// timestamp stored among the key's replicas and raises it if it is
    /// behind. This is the background safety net for the rare cases where the
    /// indirect initialization missed the latest timestamp after a failure.
    fn handle_inspection(&mut self) {
        self.stats.inspection_rounds += 1;
        const UNIVERSES: [Algorithm; 2] = [Algorithm::UmsDirect, Algorithm::UmsIndirect];
        for key_index in 0..self.keys.len() {
            let key = self.keys[key_index].clone();
            let Some(responsible) = self.overlay.responsible_for(self.ts_positions[key_index])
            else {
                continue;
            };
            // Largest timestamp stored at the ground-truth replica holders in
            // each UMS universe. Each (key, hash) position and its holder are
            // resolved once and shared by both universes — both stores live
            // on the same peer, so the per-hash holder lookup is identical.
            let mut observed: [Option<u64>; 2] = [None, None];
            for (hash_index, hash) in self.family.replication_ids().enumerate() {
                let position = self.key_positions[key_index][hash_index];
                let Some(holder) = self.overlay.responsible_for(position) else {
                    continue;
                };
                let Some(peer) = self.peers.get(&holder) else {
                    continue;
                };
                for (universe, slot) in UNIVERSES.iter().zip(observed.iter_mut()) {
                    if let Some(record) = peer.store(*universe).get(hash, &key) {
                        *slot = Some(slot.map_or(record.stamp, |m| m.max(record.stamp)));
                    }
                }
            }
            for (universe, slot) in UNIVERSES.iter().zip(observed) {
                let Some(observed) = slot else { continue };
                if let Some(kts) = self
                    .peers
                    .get_mut(&responsible)
                    .and_then(|peer| peer.kts_mut(*universe))
                {
                    if kts
                        .inspect_key(&key, rdht_core::Timestamp(observed))
                        .is_some()
                    {
                        self.stats.inspection_corrections += 1;
                    }
                }
            }
        }
        self.queue
            .schedule_in(self.config.inspection_interval, Event::PeriodicInspection);
    }

    /// Applies one update to `key_index` in all three universes, with a
    /// shared per-replica write-failure plan so that the universes stay
    /// comparable, and records the committed payload.
    pub(crate) fn apply_update(&mut self, key_index: usize) {
        let Some(origin) = self.random_alive_peer() else {
            return;
        };
        self.update_sequence[key_index] += 1;
        let sequence = self.update_sequence[key_index];
        let key = self.keys[key_index].clone();
        let payload = format!("{}#{}", key.display_lossy(), sequence).into_bytes();

        // Decide once which replica writes are lost (transiently unreachable
        // holders), and share the same plan with every universe by reference
        // (the set used to be cloned once per universe).
        let failure_probability = self.config.put_failure_probability;
        let forced_failures: std::collections::HashSet<rdht_hashing::HashId> = self
            .family
            .replication_ids()
            .filter(|_| self.rng.gen_bool(failure_probability))
            .collect();

        let mut committed = false;
        for algorithm in [Algorithm::UmsDirect, Algorithm::UmsIndirect] {
            let mut access =
                SimAccess::new(self, origin, algorithm).with_forced_put_failures(&forced_failures);
            if let Ok(report) = ums::insert(&mut access, &key, payload.clone()) {
                committed |= report.replicas_written > 0;
            }
        }
        {
            let mut access = SimAccess::new(self, origin, Algorithm::Brk)
                .with_forced_put_failures(&forced_failures);
            if let Ok(report) = rdht_baseline::insert(&mut access, &key, payload.clone()) {
                committed |= report.replicas_written > 0;
            }
        }
        if committed {
            self.latest_payload[key_index] = payload;
        }
        self.stats.updates += 1;
    }

    fn handle_update(&mut self, key_index: usize) {
        self.apply_update(key_index);
        if self.config.update_rate_per_hour > 0.0 {
            let rate_per_second = self.config.update_rate_per_hour / 3600.0;
            let inter = Exponential::new(rate_per_second).sample(&mut self.rng);
            self.queue
                .schedule_in(inter, Event::UpdateData { key_index });
        }
    }

    fn handle_query(&mut self) {
        let Some(origin) = self.random_alive_peer() else {
            return;
        };
        let key_index = self.rng.gen_range(0..self.keys.len());
        let key = self.keys[key_index].clone();
        let time = self.now();
        self.stats.queries += 1;

        for algorithm in Algorithm::ALL {
            let currency = self.measure_currency(key_index, algorithm);
            let sample = match algorithm {
                Algorithm::UmsDirect | Algorithm::UmsIndirect => {
                    let mut access = SimAccess::new(self, origin, algorithm);
                    match ums::retrieve(&mut access, &key) {
                        Ok(report) => {
                            let (elapsed, messages) = access.cost();
                            let returned_latest = report.data.as_deref()
                                == Some(self.latest_payload[key_index].as_slice());
                            Some(QuerySample {
                                time,
                                algorithm,
                                key_index,
                                response_time: elapsed,
                                messages,
                                replicas_probed: report.replicas_probed,
                                certified_current: report.is_current,
                                returned_latest,
                                currency_availability: currency,
                            })
                        }
                        Err(_) => None,
                    }
                }
                Algorithm::Brk => {
                    let mut access = SimAccess::new(self, origin, algorithm);
                    match rdht_baseline::retrieve(&mut access, &key) {
                        Ok(report) => {
                            let (elapsed, messages) = access.cost();
                            let returned_latest = report.data.as_deref()
                                == Some(self.latest_payload[key_index].as_slice());
                            Some(QuerySample {
                                time,
                                algorithm,
                                key_index,
                                response_time: elapsed,
                                messages,
                                replicas_probed: report.replicas_probed,
                                certified_current: false,
                                returned_latest,
                                currency_availability: currency,
                            })
                        }
                        Err(_) => None,
                    }
                }
            };
            if let Some(sample) = sample {
                if let Some(trace) = &self.trace {
                    // One lane per algorithm; the span's length is the
                    // simulated response time the figures plot. The span
                    // carries a deterministic trace id (a counter, not the
                    // RNG) so sim traces merge with live ones on equal
                    // footing — same `trace_id` args key, same format.
                    self.trace_query_seq += 1;
                    trace.complete_with_args(
                        algorithm.label(),
                        TRACE_PID_QUERIES,
                        trace_tid(algorithm),
                        trace_us(time),
                        trace_us(sample.response_time),
                        vec![(
                            "trace_id".to_string(),
                            format!("{:016x}", self.trace_query_seq),
                        )],
                    );
                }
                self.samples.push(sample);
            }
        }
    }

    /// Exports one live peer's state as a metrics registry snapshot:
    /// per-universe KTS work counters and stored-replica gauges, labeled
    /// with the peer's overlay id and the universe. Built on demand — the
    /// run itself carries no instrumentation — and named to mirror the live
    /// instruments of the threaded deployment (see
    /// [`crate::metrics::names`]). `None` for an id that is not a live
    /// member.
    pub fn peer_registry(&self, id: NodeId) -> Option<Registry> {
        use crate::metrics::names;
        let peer = self.peers.get(&id)?;
        let registry = Registry::new();
        let peer_label = format!("{:016x}", id.0);
        for algorithm in Algorithm::ALL {
            let labels = [
                ("peer", peer_label.as_str()),
                ("universe", algorithm.label()),
            ];
            registry
                .gauge(
                    names::STORED_REPLICAS,
                    "replicas currently stored by the peer in one universe",
                    &labels,
                )
                .set(peer.store(algorithm).len() as i64);
            let Some(kts) = peer.kts(algorithm) else {
                continue;
            };
            let stats = kts.stats();
            let counters = [
                (
                    names::KTS_TIMESTAMPS,
                    "timestamps generated (gen_ts served)",
                    stats.timestamps_generated,
                ),
                (
                    names::KTS_LAST_TS,
                    "last_ts requests served",
                    stats.last_ts_served,
                ),
                (
                    names::KTS_DIRECT_RECEIPTS,
                    "counters received through the direct transfer",
                    stats.counters_received_directly,
                ),
                (
                    names::KTS_INDIRECT_INITS,
                    "counters initialized with the indirect algorithm",
                    stats.indirect_initializations,
                ),
                (
                    names::KTS_CORRECTIONS,
                    "counters corrected by recovery or periodic inspection",
                    stats.corrections,
                ),
                (
                    names::KTS_RECOVERY_FLOORS,
                    "indirect initializations raised by a recovered durable counter",
                    stats.recovery_floor_seeds,
                ),
            ];
            for (name, help, value) in counters {
                registry.counter(name, help, &labels).add(value);
            }
        }
        Some(registry)
    }

    /// Registry snapshots of every live peer, in overlay-id order.
    pub fn export_registries(&self) -> Vec<(NodeId, Registry)> {
        let mut ids: Vec<NodeId> = self.peers.keys().copied().collect();
        ids.sort();
        ids.into_iter()
            .filter_map(|id| Some((id, self.peer_registry(id)?)))
            .collect()
    }

    /// Measures the probability of currency and availability `p_t` for one
    /// key in one universe: the fraction of replica slots whose ground-truth
    /// responsible currently stores the latest committed payload.
    pub fn measure_currency(&self, key_index: usize, algorithm: Algorithm) -> f64 {
        let key = &self.keys[key_index];
        let latest = &self.latest_payload[key_index];
        if latest.is_empty() {
            return 0.0;
        }
        let mut current = 0usize;
        let mut total = 0usize;
        for (hash_index, hash) in self.family.replication_ids().enumerate() {
            total += 1;
            let position = self.key_positions[key_index][hash_index];
            let Some(responsible) = self.overlay.responsible_for(position) else {
                continue;
            };
            let Some(peer) = self.peers.get(&responsible) else {
                continue;
            };
            if let Some(record) = peer.store(algorithm).get(hash, key) {
                if record.payload == *latest {
                    current += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            current as f64 / total as f64
        }
    }
}

/// Trace process id of the run-loop event lane.
const TRACE_PID_EVENTS: u64 = 0;
/// Trace process id of the per-algorithm query lanes.
const TRACE_PID_QUERIES: u64 = 1;

/// Maps virtual seconds onto chrome-trace microseconds.
fn trace_us(seconds: f64) -> u64 {
    (seconds * 1_000_000.0) as u64
}

/// One trace lane (thread id) per algorithm, in the reporting order.
fn trace_tid(algorithm: Algorithm) -> u64 {
    match algorithm {
        Algorithm::Brk => 0,
        Algorithm::UmsIndirect => 1,
        Algorithm::UmsDirect => 2,
    }
}

/// The chrome-trace name of a workload event.
fn event_name(event: &Event) -> &'static str {
    match event {
        Event::PeerDeparture => "peer_departure",
        Event::Join => "join",
        Event::GracefulLeave => "graceful_leave",
        Event::Crash => "crash",
        Event::UpdateData { .. } => "update",
        Event::Stabilize => "stabilize",
        Event::PeriodicInspection => "inspection",
        Event::Query => "query",
    }
}
