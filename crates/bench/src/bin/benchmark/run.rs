//! One measured run of one workload: deploy and preload the cluster, drive
//! it with two closed-loop clients through a discarded warm-up and a measured
//! window, check every answer, and collect what the metrics are computed
//! from.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rdht_core::ums::{self, RetrieveReport};
use rdht_hashing::{HashId, Key};
use rdht_net::{Cluster, ClusterClient, PeerId, TraceConfig, TraceSink};

use crate::guard;
use crate::keys::{self, key_name, Op, OpStream, SplitMix64};
use crate::stats;
use crate::workload::{Workload, CHURN_OPS_PER_EVENT, NUM_REPLICAS};

/// Closed-loop client threads, each with its own `ClusterClient`. The client
/// API is blocking calls, so callers that wait for their reply are the real
/// traffic shape; the count is fixed, never scaled with the machine.
pub const CLIENTS: usize = 2;

/// Share of client calls that carry a trace context in the traced pass.
pub const TRACE_SAMPLE_RATE: f64 = 1.0 / 16.0;

/// A run is marked disturbed when the quartile spread of its per-slice
/// completion counts exceeds this share of their median.
pub const DISTURBED_SLICE_SPREAD: f64 = 0.15;

/// How long a cluster shutdown may take before it is reported as hung.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_STOP: u8 = 2;

pub struct RunPlan<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Peers and clients record spans into this sink (the traced pass).
    pub trace: Option<TraceSink>,
    /// Where a journaled workload keeps its journals.
    pub scratch: &'a Path,
}

/// Sums over the peers of one scrape, keyed by sample name (plus the `kind`
/// label where a series has one).
pub type Totals = BTreeMap<String, f64>;

#[derive(Clone, Debug)]
pub struct MembershipEvent {
    pub kind: &'static str,
    pub millis: f64,
    pub replicas_moved: usize,
    pub in_window: bool,
}

/// What completed in one slice of the measured window. Every time-based
/// metric is the median over the slices of the per-slice value, so a few
/// disturbed seconds — a neighbour's burst on a shared box — move nothing.
#[derive(Clone, Default)]
pub struct Slice {
    /// Operations completed in the slice, failed ones included.
    pub completed: u64,
    /// Latencies of the answered operations in nanoseconds (saturating at
    /// four seconds), sorted once the run is over.
    pub retrieve_ns: Vec<u32>,
    pub insert_ns: Vec<u32>,
    /// CPU time the whole process consumed during the slice.
    pub cpu_seconds: f64,
}

/// What the client threads counted inside the measured window: per thread
/// while the run lasts, summed into the [`Outcome`] when it ends.
#[derive(Default)]
pub struct Tally {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    /// Per failure kind: how many, and the first one's description.
    pub failures: BTreeMap<&'static str, (u64, String)>,
    pub retrieves: u64,
    pub retrieves_current: u64,
    pub replicas_probed: u64,
    pub msgs_retrieve: u64,
    pub msgs_insert: u64,
    pub retries: u64,
    pub indirect_inits: u64,
}

impl Tally {
    fn new(slices: usize) -> Self {
        Tally {
            slices: vec![Slice::default(); slices],
            ..Tally::default()
        }
    }

    fn fail(&mut self, kind: &'static str, detail: String) {
        self.failures.entry(kind).or_insert((0, detail)).0 += 1;
    }

    fn absorb(&mut self, other: Tally) {
        for (total, slice) in self.slices.iter_mut().zip(other.slices) {
            total.completed += slice.completed;
            total.retrieve_ns.extend(slice.retrieve_ns);
            total.insert_ns.extend(slice.insert_ns);
        }
        self.attempted += other.attempted;
        self.retrieves += other.retrieves;
        self.retrieves_current += other.retrieves_current;
        self.replicas_probed += other.replicas_probed;
        self.msgs_retrieve += other.msgs_retrieve;
        self.msgs_insert += other.msgs_insert;
        self.retries += other.retries;
        self.indirect_inits += other.indirect_inits;
        for (kind, (count, detail)) in other.failures {
            self.failures.entry(kind).or_insert((0, detail)).0 += count;
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Seconds from spawning the cluster to the end of the preload.
    pub setup_s: f64,
    pub slice_len_s: f64,
    /// Both clients' tallies summed; the slices also carry the CPU time the
    /// main thread sampled at each slice boundary.
    pub tally: Tally,
    pub peak_rss_mb: f64,
    /// Peer-side counters accumulated over the measured window.
    pub counters: Totals,
    pub events: Vec<MembershipEvent>,
    pub event_errors: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.tally.failures.values().map(|(count, _)| count).sum()
    }

    /// The median over the slices of `value`, skipping slices where it is
    /// undefined (no sample of that kind completed).
    pub fn slice_median(&self, value: impl Fn(&Slice) -> Option<f64>) -> f64 {
        let per_slice: Vec<f64> = self.tally.slices.iter().filter_map(value).collect();
        stats::median(&per_slice).unwrap_or(0.0)
    }

    pub fn throughput_ops_s(&self) -> f64 {
        self.slice_median(|slice| Some(slice.completed as f64)) / self.slice_len_s
    }

    pub fn slice_spread_frac(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .tally
            .slices
            .iter()
            .map(|slice| slice.completed as f64)
            .collect();
        stats::spread_frac(&per_slice).unwrap_or(0.0)
    }

    pub fn window_events(&self) -> impl Iterator<Item = &MembershipEvent> {
        self.events.iter().filter(|event| event.in_window)
    }
}

/// Whether a retrieve's answer keeps the paper's promise given `floor`, the
/// largest timestamp acknowledged for the key before the retrieve began. A
/// replica newer than the floor is fine (a racing writer); a *current* flag
/// on anything older is the contract broken.
pub fn currency_holds(report: &RetrieveReport, floor: u64) -> bool {
    !(report.is_current && report.timestamp.0 < floor)
}

struct Shared {
    phase: AtomicU8,
    epoch: Instant,
    /// Start of the measured window in nanoseconds since `epoch`; published
    /// before `phase` turns to `PHASE_MEASURE`.
    window_start_ns: AtomicU64,
    slice_ns: u64,
    slices: usize,
    keys: Vec<Key>,
    /// Per key, the largest timestamp an insert was acknowledged with.
    floors: Vec<AtomicU64>,
    payload_len: usize,
    /// Operations completed by all clients since the run began; every
    /// `CHURN_OPS_PER_EVENT`-th one signals the membership driver.
    completed: AtomicU64,
}

/// What one executed operation came back with.
#[derive(Default)]
struct Answer {
    /// The failure kind and a description, when the operation failed.
    failure: Option<(&'static str, String)>,
    is_current: bool,
    replicas_probed: u64,
}

impl Answer {
    fn failed(kind: &'static str, detail: String) -> Self {
        Answer {
            failure: Some((kind, detail)),
            ..Answer::default()
        }
    }
}

/// Executes one operation and classifies its answer.
fn execute(client: &mut ClusterClient, shared: &Shared, op: Op) -> Answer {
    match op {
        Op::Insert { key, payload } => match ums::insert(client, &shared.keys[key], payload) {
            Ok(report) if report.replicas_written > 0 => {
                // The floor has to be visible to every retrieve that starts
                // after this acknowledgement, on whichever thread.
                shared.floors[key].fetch_max(report.timestamp.0, Ordering::SeqCst);
                Answer::default()
            }
            Ok(_) => Answer::failed("insert_unwritten", format!("key {key}: no replica written")),
            Err(error) => Answer::failed("insert_err", format!("key {key}: {error}")),
        },
        Op::Retrieve { key } => {
            let floor = shared.floors[key].load(Ordering::SeqCst);
            let report = match ums::retrieve(client, &shared.keys[key]) {
                Ok(report) => report,
                Err(error) => return Answer::failed("retrieve_err", format!("key {key}: {error}")),
            };
            let failure = if !currency_holds(&report, floor) {
                Some((
                    "stale_current",
                    format!(
                        "key {key}: flagged current at timestamp {} below acknowledged {floor}",
                        report.timestamp.0
                    ),
                ))
            } else if report.data.as_ref().map(Vec::len) != Some(shared.payload_len) {
                let len = report.data.as_ref().map(Vec::len);
                Some((
                    "bad_payload",
                    format!("key {key}: payload length {len:?}; {report:?}"),
                ))
            } else {
                None
            };
            Answer {
                failure,
                is_current: report.is_current,
                replicas_probed: report.replicas_probed as u64,
            }
        }
    }
}

fn client_loop(
    mut client: ClusterClient,
    mut ops: OpStream,
    shared: &Shared,
    churn: Option<Sender<()>>,
) -> Tally {
    let mut tally = Tally::new(shared.slices);
    loop {
        let phase = shared.phase.load(Ordering::Acquire);
        if phase == PHASE_STOP {
            break;
        }
        let op = ops.next_op();
        let is_retrieve = matches!(op, Op::Retrieve { .. });
        let msgs_before = client.messages();
        let retries_before = client.retries();
        let inits_before = client.indirect_initializations();
        let started = Instant::now();
        let answer = execute(&mut client, shared, op);
        let finished = Instant::now();

        if let Some(signal) = &churn {
            let done = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
            if done.is_multiple_of(CHURN_OPS_PER_EVENT) {
                // The driver outlives the clients; a send can only fail
                // while the run is being torn down.
                let _ = signal.send(());
            }
        }
        if phase != PHASE_MEASURE {
            continue;
        }
        let since_start = (finished - shared.epoch).as_nanos() as u64;
        let offset = since_start.saturating_sub(shared.window_start_ns.load(Ordering::Acquire));
        let slice = (offset / shared.slice_ns) as usize;
        if slice >= shared.slices {
            // Completed after the window closed.
            continue;
        }
        let nanos = u32::try_from((finished - started).as_nanos()).unwrap_or(u32::MAX);
        let msgs = client.messages() - msgs_before;
        tally.slices[slice].completed += 1;
        tally.attempted += 1;
        tally.retries += client.retries() - retries_before;
        tally.indirect_inits += client.indirect_initializations() - inits_before;
        if is_retrieve {
            tally.retrieves += 1;
            tally.retrieves_current += u64::from(answer.is_current);
            tally.replicas_probed += answer.replicas_probed;
            tally.msgs_retrieve += msgs;
        } else {
            tally.msgs_insert += msgs;
        }
        match answer.failure {
            Some((kind, detail)) => tally.fail(kind, detail),
            // Only answered operations have a latency: a failed one counts
            // against `failed_frac`, not into the percentiles.
            None if is_retrieve => tally.slices[slice].retrieve_ns.push(nanos),
            None => tally.slices[slice].insert_ns.push(nanos),
        }
    }
    tally
}

/// Dedup and fault-plan counters are one cluster-wide atomic mirrored into
/// every peer's registry: counted once, not once per peer.
fn is_shared_series(name: &str) -> bool {
    name.starts_with("net_dedup_") || name.starts_with("net_fault_")
}

/// Sums one peer's exposition into `totals`; shared series are taken once,
/// as the maximum.
fn add_exposition(totals: &mut Totals, text: &str) -> Result<(), String> {
    let exposition =
        rdht_metrics::parse::parse(text).map_err(|e| format!("scrape does not parse: {e:?}"))?;
    for sample in &exposition.samples {
        if sample.name.ends_with("_bucket") {
            continue;
        }
        let kind = sample.labels.iter().find(|(label, _)| label == "kind");
        let name = match kind {
            Some((_, kind)) => format!("{}{{kind={kind}}}", sample.name),
            None => sample.name.clone(),
        };
        let entry = totals.entry(name).or_insert(0.0);
        if is_shared_series(&sample.name) {
            *entry = entry.max(sample.value);
        } else {
            *entry += sample.value;
        }
    }
    Ok(())
}

/// The live cluster plus the counters of registries that no longer exist: a
/// restart gives a peer a fresh registry, so its old totals are folded in
/// here first.
struct Live {
    cluster: Cluster,
    retired: Totals,
}

impl Live {
    fn totals(&self) -> Result<Totals, String> {
        let mut totals = self.retired.clone();
        for peer in self.cluster.peer_ids() {
            if let Some(text) = self.cluster.scrape(peer) {
                add_exposition(&mut totals, &text)?;
            }
        }
        Ok(totals)
    }

    fn retire(&mut self, peer: PeerId) -> Result<(), String> {
        if let Some(text) = self.cluster.scrape(peer) {
            // Shared series must not be counted twice; they stay readable
            // from every live registry.
            let mut own = Totals::new();
            add_exposition(&mut own, &text)?;
            for (name, value) in own {
                if !is_shared_series(&name) {
                    *self.retired.entry(name).or_insert(0.0) += value;
                }
            }
        }
        Ok(())
    }
}

/// Runs the membership cycle `join(new) -> leave(it) -> crash(victim) ->
/// restart(victim)`, one event per signal, the victim rotating over the
/// founding peers. Paced by completed operations, not by the clock, so the
/// number of events per operation — and with it every count — repeats.
fn membership_driver(
    live: &Mutex<Live>,
    signals: Receiver<()>,
    shared: &Shared,
) -> (Vec<MembershipEvent>, Vec<String>) {
    let founders = live
        .lock()
        .expect("cluster mutex poisoned")
        .cluster
        .peer_ids();
    let mut fresh_ids = SplitMix64::new(0x6a6f_696e);
    let mut events = Vec::new();
    let mut errors = Vec::new();
    let mut joined = PeerId(0);
    let mut cycle = 0usize;
    let mut step = 0usize;
    while signals.recv().is_ok() {
        let victim = founders[cycle % founders.len()];
        let mut live = live.lock().expect("cluster mutex poisoned");
        let started = Instant::now();
        let result: Result<(&'static str, usize), String> = match step {
            0 => {
                joined = PeerId(fresh_ids.next_u64());
                live.cluster
                    .join_peer(joined)
                    .map(|report| ("join", report.replicas_moved))
                    .map_err(|e| format!("join_peer({:016x}): {e}", joined.0))
            }
            1 => live
                .cluster
                .leave_peer(joined)
                .map(|report| ("leave", report.replicas_moved))
                .map_err(|e| format!("leave_peer({:016x}): {e}", joined.0)),
            2 => live
                .cluster
                .crash_peer(victim)
                .map(|()| ("crash", 0))
                .map_err(|e| format!("crash_peer({:016x}): {e}", victim.0)),
            _ => live.retire(victim).and_then(|()| {
                live.cluster
                    .restart_peer(victim)
                    .map(|report| ("restart", report.recovered_replicas))
                    .map_err(|e| format!("restart_peer({:016x}): {e}", victim.0))
            }),
        };
        let millis = started.elapsed().as_secs_f64() * 1e3;
        drop(live);
        match result {
            Ok((kind, replicas_moved)) => events.push(MembershipEvent {
                kind,
                millis,
                replicas_moved,
                in_window: shared.phase.load(Ordering::Acquire) == PHASE_MEASURE,
            }),
            Err(error) => errors.push(error),
        }
        step = (step + 1) % 4;
        if step == 0 {
            cycle += 1;
        }
    }
    (events, errors)
}

fn new_client(cluster: &Cluster, plan: &RunPlan<'_>) -> ClusterClient {
    let mut client = cluster
        .client()
        .with_retry_policy(plan.workload.retry_policy());
    if let Some(sink) = &plan.trace {
        client.attach_trace(
            sink.clone(),
            TraceConfig {
                sample_rate: TRACE_SAMPLE_RATE,
                ..TraceConfig::default()
            },
        );
    }
    client
}

/// How many distinct peers hold the `|Hr|` replicas of `key` on the ring as
/// it stands.
fn replica_holders(cluster: &Cluster, key: &Key) -> usize {
    let mut holders: Vec<PeerId> = (0..NUM_REPLICAS as u32)
        .filter_map(|hash| cluster.replica_responsible(HashId(hash), key))
        .collect();
    holders.sort_unstable();
    holders.dedup();
    holders.len()
}

/// The workload's keys: the first `workload.keys` names, in index order,
/// whose replicas sit on at least `workload.min_holders()` distinct peers of
/// the founding ring (every name, where the workload asks for none).
fn choose_keys(cluster: &Cluster, workload: &Workload) -> Vec<Key> {
    (0..)
        .map(key_name)
        .filter(|key| replica_holders(cluster, key) >= workload.min_holders())
        .take(workload.keys)
        .collect()
}

/// Inserts every key once, split between the client threads; the first
/// failure, if there is one.
fn preload(cluster: &Cluster, plan: &RunPlan<'_>, shared: &Shared) -> Option<String> {
    let failures: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                let mut client = cluster
                    .client()
                    .with_retry_policy(plan.workload.retry_policy());
                let mut rng = SplitMix64::new(plan.seed ^ (thread as u64 + 1) << 32);
                scope.spawn(move || {
                    (thread..shared.keys.len())
                        .step_by(CLIENTS)
                        .find_map(|key| {
                            let payload = keys::payload(&mut rng, shared.payload_len);
                            execute(&mut client, shared, Op::Insert { key, payload })
                                .failure
                                .map(|(kind, detail)| format!("preload {kind}: {detail}"))
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("preload thread panicked"))
            .collect()
    });
    failures.into_iter().flatten().next()
}

/// Deploys the workload's cluster, chooses its keys and preloads them.
/// Returns the cluster, the state the clients share and the seconds it took.
fn deploy(plan: &RunPlan<'_>) -> Result<(Cluster, Shared, f64), String> {
    let started = Instant::now();
    let storage_root = plan.scratch.join("journals");
    // The preload clients attach no tracing, so the sink stays empty until
    // the measured clients start sampling.
    let config = plan
        .workload
        .cluster_config(&storage_root, plan.trace.clone());
    let cluster = Cluster::spawn_with(config);
    let shared = Shared::new(plan, choose_keys(&cluster, plan.workload));
    let failure = preload(&cluster, plan, &shared);
    let seconds = started.elapsed().as_secs_f64();
    match failure {
        Some(failure) => {
            tear_down(cluster, plan)?;
            Err(failure)
        }
        None => Ok((cluster, shared, seconds)),
    }
}

/// Shuts the cluster down and removes its journals, so the next deployment
/// under the same scratch directory starts empty. A shutdown that does not
/// finish is reported instead of hanging the run.
fn tear_down(cluster: Cluster, plan: &RunPlan<'_>) -> Result<(), String> {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done.send(());
    });
    match finished.recv_timeout(SHUTDOWN_DEADLINE) {
        Ok(()) => handle
            .join()
            .map_err(|_| "cluster shutdown panicked".to_string())?,
        Err(_) => {
            return Err(format!(
                "cluster shutdown did not finish within {SHUTDOWN_DEADLINE:?}"
            ))
        }
    }
    let _ = std::fs::remove_dir_all(plan.scratch.join("journals"));
    Ok(())
}

fn slicing(window: Duration) -> (Duration, usize) {
    let slice = if window >= Duration::from_secs(4) {
        Duration::from_secs(1)
    } else {
        window / 4
    };
    let slices = (window.as_secs_f64() / slice.as_secs_f64()).round() as usize;
    (slice, slices.max(1))
}

impl Shared {
    fn new(plan: &RunPlan<'_>, keys: Vec<Key>) -> Self {
        let (slice_len, slices) = slicing(plan.window);
        Shared {
            phase: AtomicU8::new(PHASE_WARMUP),
            epoch: Instant::now(),
            window_start_ns: AtomicU64::new(0),
            slice_ns: slice_len.as_nanos() as u64,
            slices,
            floors: keys.iter().map(|_| AtomicU64::new(0)).collect(),
            keys,
            payload_len: plan.workload.payload_len,
            completed: AtomicU64::new(0),
        }
    }
}

/// Deploys and preloads the workload's cluster, shuts it down again, and
/// returns the seconds the set-up took: one more sample of `setup_s`.
pub fn setup_only(plan: &RunPlan<'_>) -> Result<f64, String> {
    let (cluster, _, seconds) = deploy(plan)?;
    tear_down(cluster, plan)?;
    Ok(seconds)
}

pub fn run(plan: &RunPlan<'_>) -> Result<Outcome, String> {
    let workload = plan.workload;
    let (slice_len, slices) = slicing(plan.window);
    let (cluster, shared, setup_s) = deploy(plan)?;
    let mut outcome = Outcome {
        setup_s,
        slice_len_s: slice_len.as_secs_f64(),
        tally: Tally::new(slices),
        ..Outcome::default()
    };

    let clients: Vec<ClusterClient> = (0..CLIENTS).map(|_| new_client(&cluster, plan)).collect();
    let live = Mutex::new(Live {
        cluster,
        retired: Totals::new(),
    });
    let (signal, signals) = mpsc::channel();

    let measured: Result<(), String> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(thread, client)| {
                let ops = OpStream::new(
                    plan.seed,
                    thread as u64,
                    workload.keys,
                    workload.dist,
                    workload.retrieve_frac,
                    workload.payload_len,
                );
                let churn = workload.churn.then(|| signal.clone());
                let shared = &shared;
                scope.spawn(move || client_loop(client, ops, shared, churn))
            })
            .collect();
        drop(signal);
        let driver = workload.churn.then(|| {
            let (live, shared) = (&live, &shared);
            scope.spawn(move || membership_driver(live, signals, shared))
        });

        std::thread::sleep(plan.warmup);
        let (before, mut cpu_mark, opened) = {
            let live = live.lock().expect("cluster mutex poisoned");
            let before = live.totals();
            let cpu_mark = guard::cpu_seconds();
            let opened = Instant::now();
            shared
                .window_start_ns
                .store((opened - shared.epoch).as_nanos() as u64, Ordering::Release);
            shared.phase.store(PHASE_MEASURE, Ordering::Release);
            (before, cpu_mark, opened)
        };
        for (index, slice) in outcome.tally.slices.iter_mut().enumerate() {
            let boundary = opened + slice_len * (index as u32 + 1);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = guard::cpu_seconds();
            slice.cpu_seconds = now - cpu_mark;
            cpu_mark = now;
        }
        shared.phase.store(PHASE_STOP, Ordering::Release);

        for handle in handles {
            let tally = handle
                .join()
                .map_err(|_| "a client thread panicked".to_string())?;
            outcome.tally.absorb(tally);
        }
        if let Some(driver) = driver {
            let (events, errors) = driver
                .join()
                .map_err(|_| "the membership driver panicked".to_string())?;
            outcome.events = events;
            outcome.event_errors = errors;
        }
        let after = live.lock().expect("cluster mutex poisoned").totals()?;
        let before = before?;
        outcome.counters = after
            .into_iter()
            .map(|(name, value)| {
                let delta = value - before.get(&name).copied().unwrap_or(0.0);
                (name, delta)
            })
            .collect();
        Ok(())
    });

    let live = live.into_inner().expect("cluster mutex poisoned");
    tear_down(live.cluster, plan)?;
    measured?;
    for slice in &mut outcome.tally.slices {
        slice.retrieve_ns.sort_unstable();
        slice.insert_ns.sort_unstable();
    }
    outcome.peak_rss_mb = guard::peak_rss_mb();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_core::Timestamp;

    fn report(timestamp: u64, is_current: bool) -> RetrieveReport {
        RetrieveReport {
            data: Some(vec![0]),
            timestamp: Timestamp(timestamp),
            last_timestamp: Timestamp(timestamp),
            is_current,
            replicas_probed: 1,
            probes_failed: 0,
            degraded: false,
        }
    }

    #[test]
    fn currency_checker_flags_current_below_floor() {
        assert!(!currency_holds(&report(4, true), 5));
    }

    #[test]
    fn currency_checker_accepts_a_racing_writer_history() {
        // Floor read as 5 before the retrieve; a concurrent insert then
        // generated 6 and the retrieve saw it — newer than the floor.
        assert!(currency_holds(&report(6, true), 5));
        // Exactly the acknowledged insert.
        assert!(currency_holds(&report(5, true), 5));
        // An older replica honestly flagged not current is no violation:
        // it lowers `current_frac`, it does not break the promise.
        assert!(currency_holds(&report(3, false), 5));
    }

    #[test]
    fn churn_keys_have_replicas_on_three_founders() {
        let churn = crate::workload::find("churn_failover").expect("a workload");
        let plain = crate::workload::find("wan_delay").expect("a workload");
        let cluster = Cluster::spawn(churn.peers, NUM_REPLICAS, crate::workload::CLUSTER_SEED);
        let chosen = choose_keys(&cluster, churn);
        let every_name = choose_keys(&cluster, plain);
        let passed_over = (0..churn.keys)
            .filter(|&index| replica_holders(&cluster, &key_name(index)) < 3)
            .count();
        cluster.shutdown();
        assert_eq!(chosen.len(), churn.keys);
        // The rule passes some names over, and takes later ones instead.
        assert!(passed_over > 0);
        assert!(chosen[churn.keys - 1] > key_name(churn.keys - 1));
        // A workload that asks for no spread keeps every name.
        let names: Vec<Key> = (0..plain.keys).map(key_name).collect();
        assert_eq!(every_name, names);
    }

    #[test]
    fn scraping_sums_a_labelled_counter_across_peers() {
        let peer = |id: &str, gets: u64, suppressed: u64| {
            format!(
                "# TYPE net_requests_total counter\n\
                 net_requests_total{{peer=\"{id}\",kind=\"get\"}} {gets}\n\
                 net_requests_total{{peer=\"{id}\",kind=\"puts\"}} 1\n\
                 # TYPE net_dedup_suppressed_total counter\n\
                 net_dedup_suppressed_total{{peer=\"{id}\"}} {suppressed}\n\
                 # EOF\n"
            )
        };
        let mut totals = Totals::new();
        add_exposition(&mut totals, &peer("1", 10, 3)).expect("parses");
        add_exposition(&mut totals, &peer("2", 32, 3)).expect("parses");
        assert_eq!(totals["net_requests_total{kind=get}"], 42.0);
        assert_eq!(totals["net_requests_total{kind=puts}"], 2.0);
        // One shared atomic mirrored into both registries: counted once.
        assert_eq!(totals["net_dedup_suppressed_total"], 3.0);
    }

    #[test]
    fn windows_are_cut_into_whole_slices() {
        assert_eq!(
            slicing(Duration::from_secs(20)),
            (Duration::from_secs(1), 20)
        );
        assert_eq!(
            slicing(Duration::from_millis(200)),
            (Duration::from_millis(50), 4)
        );
    }
}
