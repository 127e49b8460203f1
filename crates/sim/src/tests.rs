//! Simulator-level tests: determinism, currency guarantees, cost ordering.

use rdht_core::durability::NoDurability;
use rdht_core::kts::IndirectObservation;
use rdht_core::{InMemoryDht, ReplicaValue, Timestamp, UmsAccess};
use rdht_hashing::{HashId, Key};
use rdht_overlay::{NodeId, Record, WritePolicy};

use crate::{Algorithm, SimAccess, SimConfig, Simulation};

fn run(config: SimConfig) -> crate::SimulationReport {
    Simulation::new(config).run()
}

#[test]
fn small_run_produces_samples_for_every_algorithm() {
    let report = run(SimConfig::small_test(48, 1));
    for algorithm in Algorithm::ALL {
        let summary = report.summary(algorithm);
        assert!(summary.count > 0, "no samples for {algorithm}");
        assert!(summary.mean_response_time > 0.0);
        assert!(summary.mean_messages > 0.0);
    }
    assert!(report.stats.queries > 0);
    assert!(report.stats.updates > 0);
}

#[test]
fn same_seed_is_deterministic() {
    let a = run(SimConfig::small_test(48, 42));
    let b = run(SimConfig::small_test(48, 42));
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.algorithm, y.algorithm);
        assert_eq!(x.key_index, y.key_index);
        assert_eq!(x.messages, y.messages);
        assert!((x.response_time - y.response_time).abs() < 1e-9);
    }
    assert_eq!(a.stats, b.stats);
}

#[test]
fn different_seeds_differ() {
    let a = run(SimConfig::small_test(48, 1));
    let b = run(SimConfig::small_test(48, 2));
    // Extremely unlikely to coincide exactly.
    let identical = a.samples.len() == b.samples.len()
        && a.samples
            .iter()
            .zip(&b.samples)
            .all(|(x, y)| (x.response_time - y.response_time).abs() < 1e-12);
    assert!(!identical);
}

#[test]
fn ums_is_cheaper_than_brk() {
    // The headline result: UMS probes far fewer replicas, so both its
    // response time and its message count are below BRK's.
    let report = run(SimConfig::small_test(64, 3));
    let ums = report.summary(Algorithm::UmsDirect);
    let brk = report.summary(Algorithm::Brk);
    assert!(
        ums.mean_response_time < brk.mean_response_time,
        "UMS {} vs BRK {}",
        ums.mean_response_time,
        brk.mean_response_time
    );
    assert!(ums.mean_messages < brk.mean_messages);
    assert!(ums.mean_replicas_probed < brk.mean_replicas_probed);
}

/// The simulator's BRK holders apply the one holder rule of the reference
/// (`InMemoryDht`): of two writes with equal versions, the one that arrived
/// first stays, and a lower version never replaces a higher one.
#[test]
fn brk_equal_version_writes_take_arrival_order() {
    let mut sim = Simulation::new(SimConfig::small_test(48, 7));
    let origin = sim.overlay.sample_alive(0).unwrap();
    let hash = sim.family.replication_ids().next().unwrap();
    let mut reference = InMemoryDht::new(sim.family.num_replication(), 7);
    let key = Key::new("doc");
    let mut access = SimAccess::new(&mut sim, origin, Algorithm::Brk);
    for (data, version) in [("first", 1), ("second", 1), ("older", 0)] {
        let value = ReplicaValue::new(data.as_bytes().to_vec(), Timestamp(version));
        access.put_replica(hash, &key, &value).unwrap();
        reference.put_replica(hash, &key, &value).unwrap();
    }
    let got = access.get_replica(hash, &key).unwrap().unwrap();
    assert_eq!(got, reference.get_replica(hash, &key).unwrap().unwrap());
    assert_eq!(
        (got.data.as_slice(), got.timestamp),
        (&b"first"[..], Timestamp(1))
    );
}

#[test]
fn brk_probes_every_replica() {
    let config = SimConfig::small_test(48, 4);
    let replicas = config.num_replicas;
    let report = run(config);
    for sample in report.samples_for(Algorithm::Brk) {
        assert_eq!(sample.replicas_probed, replicas);
    }
}

#[test]
fn ums_returns_latest_committed_data() {
    // With moderate churn, UMS queries overwhelmingly return the latest
    // committed payload, and certified-current answers are always correct.
    let report = run(SimConfig::small_test(64, 5));
    for algorithm in [Algorithm::UmsDirect, Algorithm::UmsIndirect] {
        let mut certified = 0;
        for sample in report.samples_for(algorithm) {
            if sample.certified_current {
                certified += 1;
                assert!(
                    sample.returned_latest,
                    "{algorithm} certified a non-latest answer as current"
                );
            }
        }
        assert!(
            certified > 0,
            "no certified-current answers for {algorithm}"
        );
    }
}

#[test]
fn query_probes_respect_replica_bound() {
    let config = SimConfig::small_test(48, 6);
    let replicas = config.num_replicas;
    let report = run(config);
    for sample in &report.samples {
        assert!(sample.replicas_probed <= replicas);
        assert!(sample.response_time >= 0.0);
        assert!((0.0..=1.0).contains(&sample.currency_availability));
    }
}

#[test]
fn population_stays_constant_under_churn() {
    let config = SimConfig::small_test(40, 7);
    let peers = config.num_peers;
    let mut sim = Simulation::new(config);
    let report = sim.run();
    assert_eq!(sim.live_peers(), peers);
    assert_eq!(
        report.stats.joins,
        report.stats.leaves + report.stats.failures
    );
    assert!(
        report.stats.joins > 0,
        "the churn process should have fired"
    );
}

#[test]
fn zero_churn_and_zero_updates_still_works() {
    let mut config = SimConfig::small_test(24, 8);
    config.churn_rate_per_second = 0.0;
    config.update_rate_per_hour = 0.0;
    let report = run(config);
    // Only the initial load populated the DHT; queries still find data and
    // everything is current because nothing ever changed.
    for sample in &report.samples {
        assert!(sample.returned_latest, "static data must always be current");
    }
    assert_eq!(report.stats.failures + report.stats.leaves, 0);
}

#[test]
fn higher_replica_count_increases_brk_cost_but_not_ums_direct() {
    let few = run(SimConfig::small_test(48, 9).with_num_replicas(4));
    let many = run(SimConfig::small_test(48, 9).with_num_replicas(16));
    let brk_few = few.summary(Algorithm::Brk);
    let brk_many = many.summary(Algorithm::Brk);
    assert!(
        brk_many.mean_messages > brk_few.mean_messages * 2.0,
        "BRK cost should grow roughly linearly with the replica count"
    );
    let ums_few = few.summary(Algorithm::UmsDirect);
    let ums_many = many.summary(Algorithm::UmsDirect);
    assert!(
        ums_many.mean_messages < ums_few.mean_messages * 2.0,
        "UMS-Direct cost should not grow linearly with the replica count"
    );
}

#[test]
fn measure_currency_reflects_store_state() {
    let mut sim = Simulation::new(SimConfig::small_test(32, 10));
    // Before any load, currency is zero.
    assert_eq!(sim.measure_currency(0, Algorithm::UmsDirect), 0.0);
    let report = sim.run();
    assert!(report.samples.iter().any(|s| s.currency_availability > 0.0));
}

#[test]
fn sparse_maintenance_costs_more_under_churn() {
    // Ablation for the maintenance design choice: with rare stabilization and
    // few fingers refreshed per round, stale routing entries linger, lookups
    // pay more timeouts, and the same query workload gets slower.
    let mut aggressive = SimConfig::small_test(96, 14);
    aggressive.churn_rate_per_second *= 4.0;
    aggressive.stabilize_interval = 15.0;
    aggressive.fingers_fixed_per_round = 16;
    let mut sparse = aggressive.clone();
    sparse.stabilize_interval = 240.0;
    sparse.fingers_fixed_per_round = 1;

    let fast = run(aggressive).summary(Algorithm::Brk);
    let slow = run(sparse).summary(Algorithm::Brk);
    assert!(
        slow.mean_response_time >= fast.mean_response_time,
        "sparse maintenance should not be faster (sparse {} vs aggressive {})",
        slow.mean_response_time,
        fast.mean_response_time
    );
}

#[test]
fn periodic_inspection_rounds_run_when_enabled() {
    let mut config = SimConfig::small_test(48, 12);
    config.inspection_interval = 120.0;
    let report = run(config);
    assert!(report.stats.inspection_rounds > 0);

    let mut disabled = SimConfig::small_test(48, 12);
    disabled.inspection_interval = 0.0;
    let report = run(disabled);
    assert_eq!(report.stats.inspection_rounds, 0);
    assert_eq!(report.stats.inspection_corrections, 0);
}

#[test]
fn inspection_corrections_restore_lagging_counters() {
    // Force a situation where inspection has something to fix: heavy churn
    // with mostly failures loses timestamping counters while replicas (and
    // their timestamps) survive at other peers, so responsibles that
    // re-initialize too low are eventually corrected. We only require that
    // the machinery runs without violating any query invariant.
    let mut config = SimConfig::small_test(64, 13);
    config.failure_rate = 0.9;
    config.churn_rate_per_second *= 4.0;
    config.inspection_interval = 60.0;
    let report = run(config);
    assert!(report.stats.inspection_rounds > 0);
    for sample in &report.samples {
        if sample.certified_current {
            assert!(sample.returned_latest);
        }
    }
}

#[test]
#[should_panic(expected = "invalid simulation configuration")]
fn invalid_configuration_is_rejected() {
    let mut config = SimConfig::small_test(8, 1);
    config.num_replicas = 0;
    let _ = Simulation::new(config);
}

#[test]
fn uncompensated_joins_grow_the_population() {
    let mut config = SimConfig::small_test(24, 31);
    config.churn_rate_per_second = 0.0;
    config.join_rate_per_second = 24.0 / 300.0; // a few joins over the run
    let mut simulation = Simulation::new(config);
    assert_eq!(simulation.live_peers(), 24);
    let report = simulation.run();
    assert!(report.stats.joins > 0);
    assert_eq!(report.stats.leaves + report.stats.failures, 0);
    assert_eq!(
        simulation.live_peers(),
        24 + report.stats.joins as usize,
        "every Join event grew the ring by one"
    );
}

#[test]
fn uncompensated_graceful_leaves_shrink_and_hand_counters_over() {
    let mut config = SimConfig::small_test(32, 32);
    config.churn_rate_per_second = 0.0;
    config.graceful_leave_rate_per_second = 32.0 / 400.0;
    let mut simulation = Simulation::new(config);
    let report = simulation.run();
    assert!(report.stats.leaves > 0);
    assert_eq!(report.stats.joins, 0);
    assert_eq!(simulation.live_peers(), 32 - report.stats.leaves as usize);
    // The direct universe actually transferred counters on those leaves.
    let direct = simulation
        .total_kts_stats(Algorithm::UmsDirect)
        .expect("UMS universes have KTS state");
    assert!(
        direct.counters_received_directly > 0,
        "graceful leaves must run the direct algorithm"
    );
    assert!(simulation.total_kts_stats(Algorithm::Brk).is_none());
}

/// A join and then the joiner's graceful leave move a key's replicas and
/// counters through the live hand-off phases, in every universe: the
/// counters travel in UMS-Direct, the source drops them in UMS-Indirect
/// (Rule 3), and BRK has none.
#[test]
fn join_and_graceful_leave_hand_the_range_over_in_every_universe() {
    let mut sim = Simulation::new(SimConfig::small_test(16, 5));
    let key = Key::new("moved doc");
    let position = sim.family.eval_timestamp(&key);
    let owner = sim.overlay.responsible_for(position).unwrap();
    let record = Record {
        payload: b"v".to_vec(),
        stamp: 3,
        position,
    };
    let peer = sim.peers.get_mut(&owner).unwrap();
    for algorithm in Algorithm::ALL {
        let store = peer.store_mut(algorithm);
        store.put(
            HashId(0),
            key.clone(),
            record.clone(),
            WritePolicy::Overwrite,
        );
        if let Some(kts) = peer.kts_mut(algorithm) {
            for _ in 0..3 {
                kts.gen_ts(&key, IndirectObservation::nothing, &mut NoDurability);
            }
        }
    }
    let holds = |sim: &Simulation, id: NodeId, algorithm: Algorithm| {
        let peer = &sim.peers[&id];
        let replica = peer.store(algorithm).get(HashId(0), &key).is_some();
        let counter = peer.kts(algorithm).and_then(|kts| kts.counter_value(&key));
        (replica, counter)
    };

    // The joiner takes (predecessor, position] from the owner.
    let joiner = NodeId(position);
    sim.perform_join(joiner);
    let direct = Algorithm::UmsDirect;
    assert_eq!(holds(&sim, joiner, direct), (true, Some(Timestamp(3))));
    assert_eq!(holds(&sim, owner, direct), (false, None));
    for algorithm in [Algorithm::UmsIndirect, Algorithm::Brk] {
        assert_eq!(holds(&sim, joiner, algorithm), (true, None), "{algorithm}");
        assert_eq!(holds(&sim, owner, algorithm), (false, None), "{algorithm}");
    }

    // The joiner stamps once in each UMS universe, then leaves: the range
    // goes back to the owner.
    let peer = sim.peers.get_mut(&joiner).unwrap();
    for kts in [&mut peer.kts_direct, &mut peer.kts_indirect] {
        kts.gen_ts(&key, IndirectObservation::nothing, &mut NoDurability);
    }
    sim.perform_graceful_leave(joiner);
    assert!(!sim.peers.contains_key(&joiner));
    assert_eq!(holds(&sim, owner, direct), (true, Some(Timestamp(4))));
    for algorithm in [Algorithm::UmsIndirect, Algorithm::Brk] {
        assert_eq!(holds(&sim, owner, algorithm), (true, None), "{algorithm}");
    }
}

#[test]
fn graceful_leave_churn_needs_fewer_indirect_inits_than_crash_churn() {
    // The paired experiment the new events exist for: identical workload
    // and rate, one universe departs gracefully (direct hand-off), the
    // other crashes (counters lost). The crash run must pay strictly more
    // indirect initializations in the direct-transfer universe.
    let base = |seed: u64| {
        let mut config = SimConfig::small_test(32, seed);
        config.churn_rate_per_second = 0.0;
        config.update_rate_per_hour = 60.0;
        config.queries = 20;
        config
    };
    let rate = 32.0 / 200.0;

    let mut graceful = Simulation::new(base(33).with_graceful_leave_rate(rate));
    let graceful_report = graceful.run();
    let graceful_stats = graceful.total_kts_stats(Algorithm::UmsDirect).unwrap();

    let mut crashed = Simulation::new(base(33).with_crash_rate(rate));
    let crashed_report = crashed.run();
    let crashed_stats = crashed.total_kts_stats(Algorithm::UmsDirect).unwrap();

    assert!(graceful_report.stats.leaves > 0);
    assert!(crashed_report.stats.failures > 0);
    assert!(
        graceful_stats.indirect_initializations < crashed_stats.indirect_initializations,
        "direct hand-off ({} indirect inits) must beat crash recovery ({})",
        graceful_stats.indirect_initializations,
        crashed_stats.indirect_initializations
    );
    assert!(graceful_stats.counters_received_directly > 0);
}

#[test]
fn membership_rates_reject_negative_values() {
    assert!(SimConfig::small_test(8, 1)
        .with_join_rate(-1.0)
        .validate()
        .is_err());
    assert!(SimConfig::small_test(8, 1)
        .with_graceful_leave_rate(-0.5)
        .validate()
        .is_err());
    assert!(SimConfig::small_test(8, 1)
        .with_crash_rate(-2.0)
        .validate()
        .is_err());
    assert!(SimConfig::small_test(8, 1)
        .with_join_rate(0.1)
        .with_graceful_leave_rate(0.1)
        .with_crash_rate(0.1)
        .validate()
        .is_ok());
}

#[test]
fn lossy_fault_plan_drops_messages_and_stays_deterministic() {
    use rdht_net::FaultPlan;

    // A fresh plan per run: the plan carries its own per-link RNG state.
    let run_lossy = |seed| {
        let plan = FaultPlan::lossy(seed, 0.1);
        let report = run(SimConfig::small_test(48, 7).with_fault_plan(plan.clone()));
        (report, plan.counters().dropped.get())
    };
    let (a, dropped_a) = run_lossy(90);
    let (b, dropped_b) = run_lossy(90);
    assert!(
        dropped_a > 0,
        "a 10% lossy plan must drop some simulated data messages"
    );
    assert_eq!(
        dropped_a, dropped_b,
        "the same plan seed must drop the same messages"
    );
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.algorithm, y.algorithm);
        assert_eq!(x.messages, y.messages);
        assert!((x.response_time - y.response_time).abs() < 1e-9);
    }
    assert_eq!(a.stats, b.stats);

    // And the losses are visible: every lost data message costs the sender a
    // full timeout, so the lossy run responds slower than the clean one.
    let clean = run(SimConfig::small_test(48, 7));
    let lossy_rt = a.summary(Algorithm::UmsDirect).mean_response_time;
    let clean_rt = clean.summary(Algorithm::UmsDirect).mean_response_time;
    assert!(
        lossy_rt > clean_rt,
        "lossy {lossy_rt} should exceed clean {clean_rt}"
    );
}

/// A traced run records every workload event at its simulated timestamp,
/// renders a loadable chrome trace, and — because tracing never touches the
/// random sequence — returns exactly the report an untraced run does.
#[test]
fn traced_run_is_deterministic_and_renders_chrome_trace() {
    let config = SimConfig::small_test(48, 11);
    let untraced = run(config.clone());

    let mut sim = Simulation::new(config);
    let sink = rdht_metrics::TraceSink::new();
    sim.attach_trace(sink.clone());
    let traced = sim.run();
    assert_eq!(untraced, traced, "tracing must not perturb the workload");

    assert!(!sink.is_empty(), "the run recorded events");
    let events = sink.events();
    assert!(
        events.iter().any(|e| e.name == "query"),
        "query events appear in the trace"
    );
    assert!(
        events.iter().any(|e| e.name == "UMS-Direct"),
        "per-algorithm query spans appear in the trace"
    );
    // Query spans carry deterministic trace ids (counter-derived, never
    // from the workload RNG) in the same `trace_id` args format live
    // deployments use, so merged sim + live traces correlate uniformly.
    assert!(
        events
            .iter()
            .filter(|e| e.name == "UMS-Direct")
            .all(|e| e.args.iter().any(|(k, v)| k == "trace_id" && v.len() == 16)),
        "per-algorithm query spans carry a 16-hex-digit trace_id arg"
    );
    let rendered = sink.render_chrome_trace();
    assert!(
        rendered.starts_with("{\"traceEvents\":["),
        "chrome trace uses the object format"
    );
    assert!(rendered.trim_end().ends_with("]}"));
    // Timestamps are simulated: all inside the configured duration.
    let duration_us = (sim.config().duration * 1_000_000.0) as u64;
    assert!(events.iter().all(|e| e.ts_us <= duration_us));

    // Two traced runs of the same seed render byte-identical traces: span
    // ids, timestamps and args are all derived from deterministic state.
    let mut again = Simulation::new(sim.config().clone());
    let second_sink = rdht_metrics::TraceSink::new();
    again.attach_trace(second_sink.clone());
    let second = again.run();
    assert_eq!(traced, second);
    assert_eq!(
        rendered,
        second_sink.render_chrome_trace(),
        "a traced rerun must reproduce the trace byte for byte"
    );
}

/// The exported per-peer registries carry the KTS work counters and stored
/// replica gauges of every universe, and the sum over peers matches the
/// totals the report computes.
#[test]
fn exported_peer_registries_mirror_kts_totals() {
    let config = SimConfig::small_test(48, 12);
    let mut sim = Simulation::new(config);
    sim.run();

    let registries = sim.export_registries();
    assert_eq!(registries.len(), sim.live_peers());

    let mut generated_from_registries = 0u64;
    for (_, registry) in &registries {
        let exposition = rdht_metrics::encode(registry);
        let parsed = rdht_metrics::parse::parse(&exposition).expect("parses");
        assert!(parsed.has_metric(crate::metrics::names::STORED_REPLICAS));
        generated_from_registries += parsed
            .samples
            .iter()
            .filter(|s| s.name == crate::metrics::names::KTS_TIMESTAMPS)
            .map(|s| s.value as u64)
            .sum::<u64>();
    }
    let direct = sim
        .total_kts_stats(Algorithm::UmsDirect)
        .expect("UMS universes have KTS state");
    let indirect = sim
        .total_kts_stats(Algorithm::UmsIndirect)
        .expect("UMS universes have KTS state");
    assert_eq!(
        generated_from_registries,
        direct.timestamps_generated + indirect.timestamps_generated,
        "registry snapshots mirror the live totals"
    );
}
