//! Churn handling: departures (graceful or failing) and compensating joins,
//! with replica hand-off and the KTS direct counter transfer.

use rand::Rng;

use rdht_hashing::Key;
use rdht_overlay::{MembershipEventKind, NodeId, Record, ResponsibilityChange, WritePolicy};

use rdht_core::durability::NoDurability;
use rdht_core::Timestamp;

use crate::algo::Algorithm;
use crate::peer::PeerState;
use crate::rng::Exponential;
use crate::scheduler::Event;
use crate::simulation::Simulation;

impl Simulation {
    /// Handles one departure event: a uniformly random peer leaves (gracefully
    /// or by failing, per the configured failure rate), a fresh peer joins so
    /// the population stays constant, and the next departure is scheduled.
    pub(crate) fn handle_departure(&mut self) {
        if self.overlay.len() > 2 {
            let Some(victim) = self.random_alive_peer() else {
                return;
            };
            let is_failure = self.rng.gen_bool(self.config.failure_rate);
            if is_failure {
                self.perform_failure(victim);
            } else {
                self.perform_graceful_leave(victim);
            }
            // Compensating join with a fresh identifier.
            let new_id = NodeId(self.rng.gen());
            self.perform_join(new_id);
        }

        if self.config.churn_rate_per_second > 0.0 {
            let inter = Exponential::new(self.config.churn_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_in(inter, Event::PeerDeparture);
        }
    }

    /// Handles one uncompensated [`Event::Join`]: a fresh peer enters the
    /// overlay, splitting its successor's range (counters hand over
    /// directly, replicas move if the deployment transfers data).
    pub(crate) fn handle_churn_join(&mut self) {
        let new_id = NodeId(self.rng.gen());
        self.perform_join(new_id);
        if self.config.join_rate_per_second > 0.0 {
            let inter = Exponential::new(self.config.join_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_in(inter, Event::Join);
        }
    }

    /// Handles one uncompensated [`Event::GracefulLeave`]: a random peer
    /// departs through the direct algorithm of Section 4.2.1.
    pub(crate) fn handle_churn_graceful_leave(&mut self) {
        if self.overlay.len() > 2 {
            if let Some(victim) = self.random_alive_peer() {
                self.perform_graceful_leave(victim);
            }
        }
        if self.config.graceful_leave_rate_per_second > 0.0 {
            let inter =
                Exponential::new(self.config.graceful_leave_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_in(inter, Event::GracefulLeave);
        }
    }

    /// Handles one uncompensated [`Event::Crash`]: a random peer fail-stops;
    /// its counters and (non-replicated) state die with it, forcing indirect
    /// re-initializations later.
    pub(crate) fn handle_churn_crash(&mut self) {
        if self.overlay.len() > 2 {
            if let Some(victim) = self.random_alive_peer() {
                self.perform_failure(victim);
            }
        }
        if self.config.crash_rate_per_second > 0.0 {
            let inter = Exponential::new(self.config.crash_rate_per_second).sample(&mut self.rng);
            self.queue.schedule_in(inter, Event::Crash);
        }
    }

    /// A graceful leave of `victim`: the overlay hands its ranges over and
    /// the departing state is transferred per [`Self::process_departure_change`].
    pub(crate) fn perform_graceful_leave(&mut self, victim: NodeId) {
        let departing_state = self.peers.remove(&victim);
        self.stats.leaves += 1;
        let outcome = self.overlay.leave(victim);
        if let Some(mut departing_state) = departing_state {
            for change in &outcome.changes {
                self.process_departure_change(change, &mut departing_state);
            }
        }
    }

    /// A fail-stop of `victim`: nothing is handed over.
    pub(crate) fn perform_failure(&mut self, victim: NodeId) {
        let departing_state = self.peers.remove(&victim);
        self.stats.failures += 1;
        let outcome = self.overlay.fail(victim);
        if let Some(mut departing_state) = departing_state {
            for change in &outcome.changes {
                self.process_departure_change(change, &mut departing_state);
            }
        }
    }

    /// A join of `new_id`: the overlay splits the successor's range and the
    /// still-alive previous responsible hands state over per
    /// [`Self::process_join_change`].
    pub(crate) fn perform_join(&mut self, new_id: NodeId) {
        let join_outcome = self.overlay.join(new_id);
        self.peers.insert(new_id, PeerState::new());
        self.stats.joins += 1;
        for change in &join_outcome.changes {
            self.process_join_change(change);
        }
    }

    /// Processes a responsibility change caused by a departure. For a
    /// graceful leave, the departing peer hands over its KTS counters (the
    /// direct algorithm — UMS-Direct universe only) and, if the deployment
    /// transfers data on membership changes, its replicas. For a failure,
    /// nothing can be handed over: replicas and counters die with the peer.
    fn process_departure_change(
        &mut self,
        change: &ResponsibilityChange,
        departing_state: &mut PeerState,
    ) {
        if !change.handover_possible || change.kind == MembershipEventKind::Fail {
            return;
        }

        // Direct counter transfer (Section 4.2.1): the departing responsible
        // of timestamping ships the counters of the keys whose timestamping
        // position falls in the moved range to the next responsible.
        let family = &self.family;
        let exported: Vec<(Key, Timestamp)> = departing_state.kts_direct.export_counters_in_range(
            |key| change.covers(family.eval_timestamp(key)),
            &mut NoDurability,
        );
        if let Some(target) = self.peers.get_mut(&change.to) {
            target
                .kts_direct
                .receive_transferred_counters(exported, &mut NoDurability);
        }
        // The UMS-Indirect universe never transfers counters: they simply die
        // with the departing peer, forcing the indirect initialization later.

        if self.config.transfer_data_on_membership_change {
            for algorithm in Algorithm::ALL {
                let moved: Vec<(rdht_hashing::HashId, Key, Record)> = departing_state
                    .store_mut(algorithm)
                    .drain_range(change.range_start, change.range_end);
                if let Some(target) = self.peers.get_mut(&change.to) {
                    for (hash, key, record) in moved {
                        target
                            .store_mut(algorithm)
                            .put(hash, key, record, WritePolicy::KeepNewest);
                    }
                }
            }
        }
    }

    /// Processes a responsibility change caused by a join: the previous
    /// responsible (still alive — the RLA detection point) hands the covered
    /// counters to the new responsible in the UMS-Direct universe, drops them
    /// in the UMS-Indirect universe (Rule 3), and optionally hands replicas
    /// over.
    fn process_join_change(&mut self, change: &ResponsibilityChange) {
        if change.kind != MembershipEventKind::Join {
            return;
        }

        let family = &self.family;
        let transfer_data = self.config.transfer_data_on_membership_change;

        // Extract everything from the previous responsible first, then apply
        // it to the new responsible (two sequential mutable borrows).
        let mut exported_counters: Vec<(Key, Timestamp)> = Vec::new();
        let mut moved_records: Vec<(Algorithm, rdht_hashing::HashId, Key, Record)> = Vec::new();
        if let Some(previous) = self.peers.get_mut(&change.from) {
            exported_counters = previous.kts_direct.export_counters_in_range(
                |key| change.covers(family.eval_timestamp(key)),
                &mut NoDurability,
            );
            // RLA Rule 3 in the UMS-Indirect universe: the previous
            // responsible detects the loss of responsibility and invalidates
            // the covered counters without transferring them.
            previous.kts_indirect.export_counters_in_range(
                |key| change.covers(family.eval_timestamp(key)),
                &mut NoDurability,
            );
            if transfer_data {
                for algorithm in Algorithm::ALL {
                    for (hash, key, record) in previous
                        .store_mut(algorithm)
                        .drain_range(change.range_start, change.range_end)
                    {
                        moved_records.push((algorithm, hash, key, record));
                    }
                }
            }
        }
        if let Some(new_responsible) = self.peers.get_mut(&change.to) {
            new_responsible
                .kts_direct
                .receive_transferred_counters(exported_counters, &mut NoDurability);
            for (algorithm, hash, key, record) in moved_records {
                new_responsible.store_mut(algorithm).put(
                    hash,
                    key,
                    record,
                    WritePolicy::KeepNewest,
                );
            }
        }
    }
}
