//! Churn handling: departures (graceful or failing) and compensating joins.
//! A join or a graceful leave hands replicas and counters over through the
//! live cluster's three hand-off phases (`rdht_net::handoff`), once per
//! universe; a failure hands nothing over.

use rand::Rng;

use rdht_core::kts::KtsNode;
use rdht_hashing::HashFamily;
use rdht_net::handoff::{commit_handoff, export_handoff, install_handoff, Unjournaled};
use rdht_overlay::{MembershipEventKind, NodeId, ResponsibilityChange};

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

    /// Processes a responsibility change caused by a departure: a graceful
    /// leave hands the range over per [`hand_off`]; after a failure nothing
    /// can be handed over, and replicas and counters die with the peer.
    fn process_departure_change(
        &mut self,
        change: &ResponsibilityChange,
        departing_state: &mut PeerState,
    ) {
        if !change.handover_possible || change.kind == MembershipEventKind::Fail {
            return;
        }
        if let Some(target) = self.peers.get_mut(&change.to) {
            hand_off(&self.family, change, departing_state, target);
        }
    }

    /// Processes a responsibility change caused by a join: the previous
    /// responsible (still alive — the RLA detection point) hands the range
    /// to the new responsible per [`hand_off`].
    fn process_join_change(&mut self, change: &ResponsibilityChange) {
        if change.kind != MembershipEventKind::Join {
            return;
        }
        if let [Some(previous), Some(new_responsible)] =
            self.peers.get_disjoint_mut([&change.from, &change.to])
        {
            hand_off(&self.family, change, previous, new_responsible);
        }
    }
}

/// Hands `change`'s range from `source` to `target` in every universe with
/// the live hand-off's export, its bundles installed in the live order, and
/// its commit. The UMS-Direct universe transfers the counters (Section
/// 4.2.1); the UMS-Indirect universe drops them (Rule 3: the source
/// invalidates the counters it is no longer responsible for), so the new
/// responsible initializes them indirectly. BRK keeps no counters.
fn hand_off(
    family: &HashFamily,
    change: &ResponsibilityChange,
    source: &mut PeerState,
    target: &mut PeerState,
) {
    let (start, end) = (change.range_start, change.range_end);
    for algorithm in Algorithm::ALL {
        let mut no_counters = KtsNode::default();
        let (store, kts) = source.universe_mut(algorithm);
        let kts = kts.unwrap_or(&mut no_counters);
        let mut export = export_handoff(&mut Unjournaled(store), kts, family, start, end);
        if algorithm == Algorithm::UmsIndirect {
            export.counters.clear();
        }
        let (target_store, target_kts) = target.universe_mut(algorithm);
        let target_kts = target_kts.unwrap_or(&mut no_counters);
        for bundle in export.bundles(store) {
            install_handoff(&mut Unjournaled(target_store), target_kts, bundle);
        }
        commit_handoff(&mut Unjournaled(source.store_mut(algorithm)), start, end);
    }
}
