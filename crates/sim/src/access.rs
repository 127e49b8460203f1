//! `SimAccess`: executes UMS/BRK operations against the simulated overlay
//! while accumulating simulated time and message counts.

use std::collections::HashSet;

use rdht_hashing::{HashId, Key};
use rdht_net::fault::End;
use rdht_overlay::{LookupError, NodeId, Record, WritePolicy};

use rdht_baseline::{BrkAccess, Version, VersionedValue};
use rdht_core::durability::NoDurability;
use rdht_core::kts::IndirectObservation;
use rdht_core::{ReplicaValue, Timestamp, UmsAccess, UmsError};

use crate::algo::Algorithm;
use crate::simulation::Simulation;

/// A cost-accounting view of the simulated DHT, bound to one origin peer and
/// one algorithm universe.
///
/// Every [`UmsAccess`] / [`BrkAccess`] call is executed against the real
/// overlay (routing hops, timeouts, lazy repair) and the per-peer stores of
/// the chosen universe, and its cost is added to the running totals returned
/// by [`SimAccess::cost`]. The paper's response time and message-count
/// metrics are exactly these totals.
pub struct SimAccess<'a> {
    sim: &'a mut Simulation,
    origin: NodeId,
    algorithm: Algorithm,
    elapsed: f64,
    messages: u64,
    forced_put_failures: Option<&'a HashSet<HashId>>,
}

impl<'a> SimAccess<'a> {
    /// Creates an access context for `origin` in the given algorithm
    /// universe.
    pub fn new(sim: &'a mut Simulation, origin: NodeId, algorithm: Algorithm) -> Self {
        SimAccess {
            sim,
            origin,
            algorithm,
            elapsed: 0.0,
            messages: 0,
            forced_put_failures: None,
        }
    }

    /// Marks a set of replication hash functions whose writes will not reach
    /// their holder (transiently unreachable peers). Used by the update
    /// workload so that all algorithm universes share the same failure plan —
    /// by reference, so one plan serves every universe without clones.
    pub fn with_forced_put_failures(mut self, failures: &'a HashSet<HashId>) -> Self {
        self.forced_put_failures = Some(failures);
        self
    }

    fn put_is_forced_to_fail(&self, hash: HashId) -> bool {
        self.forced_put_failures
            .is_some_and(|failures| failures.contains(&hash))
    }

    /// Rolls the configured fault plan for the data message
    /// `origin → holder`. A dropped message costs the sender a full timeout
    /// (it waits for an ack or response that never comes) — the same penalty
    /// a transiently unreachable peer incurs.
    fn data_message_dropped(&mut self, holder: NodeId) -> bool {
        let dropped = self
            .sim
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.roll_drop(End::Peer(self.origin.0), End::Peer(holder.0)));
        if dropped {
            self.elapsed += self.sim.network.timeout_penalty();
            self.messages += 1;
        }
        dropped
    }

    /// The accumulated cost: (simulated seconds, messages).
    pub fn cost(&self) -> (f64, u64) {
        (self.elapsed, self.messages)
    }

    /// The origin peer of this context.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// The algorithm universe of this context.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    fn charge_control(&mut self) {
        self.elapsed += self.sim.network.control_delay(&mut self.sim.rng);
        self.messages += 1;
    }

    fn charge_data(&mut self) {
        self.elapsed += self.sim.network.data_delay(&mut self.sim.rng);
        self.messages += 1;
    }

    /// Routes a lookup and charges its hops and timeouts.
    fn lookup_priced(&mut self, from: NodeId, position: u64) -> Result<NodeId, UmsError> {
        match self.sim.overlay.lookup(from, position) {
            Ok(outcome) => {
                for _ in 0..outcome.hops {
                    self.elapsed += self.sim.network.control_delay(&mut self.sim.rng);
                }
                self.elapsed += f64::from(outcome.timeouts) * self.sim.network.timeout_penalty();
                self.messages += u64::from(outcome.hops) + u64::from(outcome.timeouts);
                Ok(outcome.responsible)
            }
            Err(LookupError::RoutingExhausted { messages, timeouts }) => {
                self.elapsed += f64::from(messages - timeouts)
                    * self.sim.network.control_delay(&mut self.sim.rng)
                    + f64::from(timeouts) * self.sim.network.timeout_penalty();
                self.messages += u64::from(messages);
                Err(UmsError::lookup("routing exhausted"))
            }
            Err(error) => Err(UmsError::lookup(error.to_string())),
        }
    }

    /// Runs the indirect counter initialization from the timestamping
    /// responsible: reads the key's replicas under every replication hash
    /// function and returns the largest timestamp observed (Figure 5 of the
    /// paper), charging `|Hr|` lookups and responses.
    fn collect_indirect_observation(
        &mut self,
        responsible: NodeId,
        key: &Key,
    ) -> IndirectObservation {
        let mut max_observed: Option<Timestamp> = None;
        // Iterate by index so the borrow of the family does not outlive the
        // mutable borrows below (no id vector is materialized).
        for hash_index in 0..self.sim.family.num_replication() {
            let hash = HashId(hash_index as u32);
            let position = self.sim.family.eval(hash, key);
            let Ok(holder) = self.lookup_priced(responsible, position) else {
                continue;
            };
            let stamp = self
                .sim
                .peers
                .get(&holder)
                .and_then(|peer| peer.store(self.algorithm).get(hash, key))
                .map(|record| record.stamp);
            match stamp {
                Some(stamp) => {
                    self.charge_data();
                    let ts = Timestamp(stamp);
                    if max_observed.map(|m| ts > m).unwrap_or(true) {
                        max_observed = Some(ts);
                    }
                }
                None => self.charge_control(),
            }
        }
        match max_observed {
            Some(ts) => IndirectObservation::observed(ts),
            None => IndirectObservation::nothing(),
        }
    }

    /// Shared implementation of the two KTS client calls: route to the
    /// timestamping responsible, run the indirect initialization if its
    /// counter is missing, then serve the request.
    fn kts_request(&mut self, key: &Key, generate: bool) -> Result<Timestamp, UmsError> {
        if self.algorithm == Algorithm::Brk {
            return Err(UmsError::kts("BRK has no timestamping service"));
        }
        let ts_position = self.sim.family.eval_timestamp(key);
        let responsible = self.lookup_priced(self.origin, ts_position)?;

        let needs_init = self
            .sim
            .peers
            .get(&responsible)
            .and_then(|peer| peer.kts(self.algorithm))
            .map(|kts| !kts.has_counter(key))
            .unwrap_or(true);
        let observation = if needs_init {
            self.collect_indirect_observation(responsible, key)
        } else {
            IndirectObservation::nothing()
        };

        // The responsible's reply to the timestamp request.
        self.charge_control();

        let peer = self
            .sim
            .peers
            .get_mut(&responsible)
            .ok_or_else(|| UmsError::kts("timestamping responsible vanished"))?;
        let kts = peer
            .kts_mut(self.algorithm)
            .ok_or_else(|| UmsError::kts("algorithm has no timestamping service"))?;
        let timestamp = if generate {
            kts.gen_ts(key, || observation, &mut NoDurability).timestamp
        } else {
            kts.last_ts(key, || observation, &mut NoDurability)
                .timestamp
        };
        Ok(timestamp)
    }
}

impl UmsAccess for SimAccess<'_> {
    fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        self.kts_request(key, true)
    }

    fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        self.kts_request(key, false)
    }

    fn put_replica(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &ReplicaValue,
    ) -> Result<(), UmsError> {
        let position = self.sim.family.eval(hash, key);
        let holder = self.lookup_priced(self.origin, position)?;
        if self.put_is_forced_to_fail(hash) {
            // The data message is lost; the writer waits for an ack that never
            // arrives.
            self.elapsed += self.sim.network.timeout_penalty();
            self.messages += 1;
            return Err(UmsError::lookup("replica holder transiently unreachable"));
        }
        if self.data_message_dropped(holder) {
            return Err(UmsError::lookup("replica write lost (fault plan)"));
        }
        self.charge_data();
        self.charge_control();
        let peer = self
            .sim
            .peers
            .get_mut(&holder)
            .ok_or_else(|| UmsError::lookup("replica holder vanished"))?;
        peer.store_mut(self.algorithm).put(
            hash,
            key.clone(),
            Record {
                payload: value.data.clone(),
                stamp: value.timestamp.0,
                position,
            },
            WritePolicy::KeepNewest,
        );
        Ok(())
    }

    fn get_replica(&mut self, hash: HashId, key: &Key) -> Result<Option<ReplicaValue>, UmsError> {
        let position = self.sim.family.eval(hash, key);
        let holder = self.lookup_priced(self.origin, position)?;
        if self.data_message_dropped(holder) {
            return Err(UmsError::lookup("replica probe lost (fault plan)"));
        }
        let record = self
            .sim
            .peers
            .get(&holder)
            .and_then(|peer| peer.store(self.algorithm).get(hash, key))
            .cloned();
        match record {
            Some(record) => {
                self.charge_data();
                Ok(Some(ReplicaValue::new(
                    record.payload,
                    Timestamp(record.stamp),
                )))
            }
            None => {
                self.charge_control();
                Ok(None)
            }
        }
    }

    fn replication_count(&self) -> usize {
        self.sim.family.num_replication()
    }
}

impl BrkAccess for SimAccess<'_> {
    fn put_versioned(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &VersionedValue,
    ) -> Result<(), UmsError> {
        let position = self.sim.family.eval(hash, key);
        let holder = self.lookup_priced(self.origin, position)?;
        if self.put_is_forced_to_fail(hash) {
            self.elapsed += self.sim.network.timeout_penalty();
            self.messages += 1;
            return Err(UmsError::lookup("replica holder transiently unreachable"));
        }
        if self.data_message_dropped(holder) {
            return Err(UmsError::lookup("replica write lost (fault plan)"));
        }
        self.charge_data();
        self.charge_control();
        let peer = self
            .sim
            .peers
            .get_mut(&holder)
            .ok_or_else(|| UmsError::lookup("replica holder vanished"))?;
        peer.store_mut(self.algorithm).put(
            hash,
            key.clone(),
            Record {
                payload: value.data.clone(),
                stamp: value.version.0,
                position,
            },
            WritePolicy::KeepNewest,
        );
        Ok(())
    }

    fn get_versioned(
        &mut self,
        hash: HashId,
        key: &Key,
    ) -> Result<Option<VersionedValue>, UmsError> {
        let position = self.sim.family.eval(hash, key);
        let holder = self.lookup_priced(self.origin, position)?;
        if self.data_message_dropped(holder) {
            return Err(UmsError::lookup("replica probe lost (fault plan)"));
        }
        let record = self
            .sim
            .peers
            .get(&holder)
            .and_then(|peer| peer.store(self.algorithm).get(hash, key))
            .cloned();
        match record {
            Some(record) => {
                self.charge_data();
                Ok(Some(VersionedValue::new(
                    record.payload,
                    Version(record.stamp),
                )))
            }
            None => {
                self.charge_control();
                Ok(None)
            }
        }
    }

    fn replication_count(&self) -> usize {
        self.sim.family.num_replication()
    }
}
