//! The environment interface UMS operations are written against.

use rdht_hashing::{HashId, Key};

use crate::error::UmsError;
use crate::types::{ReplicaValue, Timestamp};

/// Everything UMS needs from the DHT it runs on (Section 3 of the paper:
/// "UMS only requires the DHT's lookup service with `put_h` and `get_h`
/// operations", plus the two KTS operations).
///
/// Implementations:
///
/// * [`crate::InMemoryDht`] — a single-process map, used in doctests, unit
///   tests and the quickstart example;
/// * `rdht_sim::SimAccess` — cost-accounting access to the simulated
///   Chord overlay (every call is priced in simulated latency and messages);
/// * `rdht_net::ClusterClient` — real message exchange with threaded peers.
///
/// The BRK baseline ([`crate::brk`]) runs over the same trait but uses only
/// `put_h` / `get_h` ([`UmsAccess::put_replica`], [`UmsAccess::get_replica`])
/// over [`UmsAccess::replication_ids`]: it has no timestamping service.
///
/// The `&mut self` receivers exist because implementations mutate their
/// environment: the simulator advances clocks and repairs routing state, the
/// threaded client consumes its sockets.
///
/// Two methods exist only so that an environment with real message costs can
/// pack Figure 2's steps into fewer messages, and default to the plain
/// sequence of the primitives above: [`UmsAccess::stamp_and_put`] (the whole
/// of an insert once the data is known: `gen_ts`, then the `|Hr|` puts, which
/// are independent of each other) and [`UmsAccess::kts_last_ts_and_probe`]
/// (`last_ts` and the first probe of a retrieve are independent of each
/// other). Every other step of Figure 2 depends on the one before it and
/// stays a single call. A third, [`UmsAccess::first_probe`], lets such an
/// environment say *which* replica that first probe reads.
pub trait UmsAccess {
    /// Asks the timestamping responsible `rsp(k, h_ts)` to generate a fresh
    /// timestamp for `key` (KTS `gen_ts`).
    fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError>;

    /// Asks the timestamping responsible for the last timestamp generated for
    /// `key` (KTS `last_ts`). Returns [`Timestamp::ZERO`] when no timestamp
    /// has ever been generated.
    fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError>;

    /// Stores a stamped replica at `rsp(k, h)` (the DHT `put_h` operation).
    /// The receiving peer keeps the write only if the timestamp is newer than
    /// what it already holds.
    fn put_replica(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &ReplicaValue,
    ) -> Result<(), UmsError>;

    /// Reads the replica stored at `rsp(k, h)` (the DHT `get_h` operation).
    /// `Ok(None)` means the responsible peer holds no replica for the key.
    fn get_replica(&mut self, hash: HashId, key: &Key) -> Result<Option<ReplicaValue>, UmsError>;

    /// The opening of `retrieve` (Figure 2) as one operation: KTS `last_ts`
    /// for `key` *and* the probe `get_h` of `hash`, the first replica
    /// `retrieve` reads. The two are independent — the first probe is sent
    /// whatever KTS answers, and neither request carries the other's result
    /// — so an environment that pays per round trip overrides this to issue
    /// both at once (`rdht_net::ClusterClient` does) and answers in one
    /// round trip instead of two. The default is the two calls in sequence,
    /// KTS first, exactly what `retrieve` did before the method existed —
    /// so [`crate::InMemoryDht`] and the simulator are untouched.
    ///
    /// Overlapping cannot weaken the currency guarantee: both reads still
    /// happen after the retrieve began, and `retrieve` certifies a replica
    /// only when its stamp *equals* the `last_ts` returned here, in
    /// whichever order the two reads were served. A probe served before a
    /// concurrent insert's `gen_ts` and a `last_ts` served after it merely
    /// disagree, and the replica is treated as stale — the same outcome
    /// the sequential order produces when the insert lands between its two
    /// calls.
    fn kts_last_ts_and_probe(
        &mut self,
        key: &Key,
        hash: HashId,
    ) -> (
        Result<Timestamp, UmsError>,
        Result<Option<ReplicaValue>, UmsError>,
    ) {
        let last = self.kts_last_ts(key);
        let probe = self.get_replica(hash, key);
        (last, probe)
    }

    /// Figure 2's `insert` once the data is known, as one operation: KTS
    /// `gen_ts` for `key`, then `data` stamped with that timestamp stored at
    /// `rsp(k, h)` for **every** `h ∈ Hr`. Returns the timestamp and how
    /// many puts were applied. The default is exactly that sequence —
    /// [`UmsAccess::kts_gen_ts`], then [`UmsAccess::put_replica`] in id
    /// order — so [`crate::InMemoryDht`] and the simulator are untouched.
    ///
    /// An environment that pays per message overrides it
    /// (`rdht_net::ClusterClient`): the puts are grouped into one message
    /// per responsible peer, and the puts that live on `rsp(k, h_ts)` ride
    /// in the `gen_ts` request itself — that peer stamps, then stores them
    /// with the stamp, so the put round skips it. The order is still
    /// Figure 2's: no replica is written before its stamp exists.
    ///
    /// A `gen_ts` failure is the error; per-put failures are absorbed into
    /// the outcome's `failed` count rather than aborting the fan-out — an
    /// insert succeeds as long as *some* replica was written.
    fn stamp_and_put(
        &mut self,
        key: &Key,
        data: Vec<u8>,
    ) -> Result<(Timestamp, PutReplicasOutcome), UmsError> {
        let timestamp = self.kts_gen_ts(key)?;
        let value = ReplicaValue::new(data, timestamp);
        let mut outcome = PutReplicasOutcome::default();
        for hash in self.replication_ids() {
            match self.put_replica(hash, key, &value) {
                Ok(()) => outcome.written += 1,
                Err(_) => outcome.failed += 1,
            }
        }
        Ok((timestamp, outcome))
    }

    /// The replica `retrieve` should probe first, alongside `last_ts`: any
    /// member of `Hr`. Figure 2 probes the replicas of `Hr` in no prescribed
    /// order, so the choice changes cost, never the result; an environment
    /// where one peer can answer both requests of the opening
    /// (`rdht_net::ClusterClient`: a replica that lives on `rsp(k, h_ts)`)
    /// names that replica here. The default is `HashId(0)`, the head of
    /// [`UmsAccess::replication_ids`] — the order [`crate::InMemoryDht`] and
    /// the simulator keep.
    fn first_probe(&self, _key: &Key) -> HashId {
        HashId(0)
    }

    /// Number of replication hash functions, `|Hr|`.
    fn replication_count(&self) -> usize;

    /// The ids of the replication hash functions `Hr`, in the order retrieve
    /// probes them after [`UmsAccess::first_probe`] (which it skips here):
    /// `HashId(0)..HashId(|Hr|)`. Allocation-free — the returned iterator is
    /// a counted range.
    fn replication_ids(&self) -> ReplicationIds {
        ReplicationIds::new(self.replication_count())
    }
}

/// Outcome of an insert's replica fan-out ([`UmsAccess::stamp_and_put`]):
/// how many of the `|Hr|` puts were applied and how many were lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PutReplicasOutcome {
    /// Puts applied by a responsible peer.
    pub written: usize,
    /// Puts that reached no responsible peer.
    pub failed: usize,
}

/// Allocation-free iterator over the ids of the replication hash functions
/// `Hr`: `HashId(0), HashId(1), …, HashId(|Hr| − 1)`.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationIds {
    next: u32,
    end: u32,
}

impl ReplicationIds {
    /// Iterator over the first `count` replication hash ids.
    pub fn new(count: usize) -> Self {
        ReplicationIds {
            next: 0,
            end: u32::try_from(count).expect("|Hr| fits in u32"),
        }
    }
}

impl Iterator for ReplicationIds {
    type Item = HashId;

    #[inline]
    fn next(&mut self) -> Option<HashId> {
        if self.next == self.end {
            return None;
        }
        let id = HashId(self.next);
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.end - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ReplicationIds {}
