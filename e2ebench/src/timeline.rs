//! When each epoch was due, published, and first held by each consumer.

use ripki_payload::json::write_vrps_json;
use ripki_payload::VrpPayload;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The consumers whose arrival times make the end-to-end latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// The RTR router (serial ≥ epoch).
    Rtr,
    /// The ETag poller of the proxy HTTP target (body of the epoch).
    Http,
    /// A read response of the query plane stamped with the epoch.
    View,
}

#[derive(Debug, Clone, Default)]
pub struct EpochMark {
    /// When the epoch was due; `None` for epochs made during set-up.
    pub due: Option<Instant>,
    /// When `Gossip::publish` returned.
    pub published: Option<Instant>,
    /// VRPs in the epoch's served (SLURM-excepted) payload.
    pub vrps: usize,
    held: [Option<Instant>; 3],
}

impl EpochMark {
    pub fn held(&self, consumer: Consumer) -> Option<Instant> {
        self.held[consumer as usize]
    }
}

#[derive(Default)]
pub struct Timeline {
    epochs: Mutex<BTreeMap<u64, EpochMark>>,
}

impl Timeline {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, EpochMark>> {
        self.epochs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register an epoch before it is published, so no consumer can
    /// see it before its mark exists.
    pub fn open(&self, epoch: u64, due: Option<Instant>, vrps: usize) {
        self.lock().insert(
            epoch,
            EpochMark {
                due,
                vrps,
                ..EpochMark::default()
            },
        );
    }

    pub fn published(&self, epoch: u64, at: Instant) {
        if let Some(mark) = self.lock().get_mut(&epoch) {
            mark.published = Some(at);
        }
    }

    pub fn mark(&self, epoch: u64) -> Option<EpochMark> {
        self.lock().get(&epoch).cloned()
    }

    /// `consumer` holds `epoch` since `at`: so does it every earlier
    /// epoch it had not held by then (a newer serial supersedes them).
    /// Each epoch keeps the earliest instant, whatever order the
    /// observations are recorded in.
    pub fn held(&self, consumer: Consumer, epoch: u64, at: Instant) {
        let mut epochs = self.lock();
        for (_, mark) in epochs.range_mut(..=epoch).rev() {
            let slot = &mut mark.held[consumer as usize];
            if slot.is_some_and(|t| t <= at) {
                break;
            }
            *slot = Some(at);
        }
    }

    /// The newest epoch `consumer` holds.
    pub fn latest_held(&self, consumer: Consumer) -> Option<u64> {
        self.lock()
            .iter()
            .rev()
            .find(|(_, m)| m.held(consumer).is_some())
            .map(|(e, _)| *e)
    }

    /// The newest epoch opened so far.
    pub fn newest(&self) -> u64 {
        self.lock().keys().next_back().copied().unwrap_or(0)
    }

    pub fn snapshot(&self) -> BTreeMap<u64, EpochMark> {
        self.lock().clone()
    }
}

/// What the query plane served at one epoch, kept so read responses
/// can be checked against the epoch they are stamped with. The view
/// itself is not kept: the program drops a retired view when it
/// publishes the next one, and the benchmark must not move that drop.
pub struct ServedEpoch {
    pub epoch: u64,
    /// The served (SLURM-excepted) VRP set.
    pub payload: VrpPayload,
    /// The epoch's rejected-object count, as `vrps.json` reports it.
    pub rejected: usize,
    export: OnceLock<Vec<u8>>,
}

impl ServedEpoch {
    pub fn new(epoch: u64, payload: VrpPayload, rejected: usize) -> ServedEpoch {
        ServedEpoch {
            epoch,
            payload,
            rejected,
            export: OnceLock::new(),
        }
    }

    /// The epoch's `vrps.json`, serialized once however many readers
    /// check it.
    pub fn export(&self) -> &[u8] {
        self.export.get_or_init(|| {
            let mut out = Vec::new();
            let _ = write_vrps_json(&self.payload, Some(self.rejected), &mut out);
            out
        })
    }
}

/// The last few served epochs.
#[derive(Default)]
pub struct Served {
    recent: Mutex<VecDeque<Arc<ServedEpoch>>>,
}

/// How many served epochs stay checkable.
const RETAINED: usize = 4;

impl Served {
    pub fn push(&self, served: ServedEpoch) {
        let served = Arc::new(served);
        let evicted = {
            let mut recent = self
                .recent
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            recent.push_back(served);
            (recent.len() > RETAINED).then(|| recent.pop_front())
        };
        // Released outside the lock, so readers never wait on a drop.
        drop(evicted);
    }

    /// The served epoch `epoch`. A response can arrive a moment before
    /// the publishing thread recorded it, so wait briefly.
    pub fn get(&self, epoch: u64) -> Option<Arc<ServedEpoch>> {
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            let found = self
                .recent
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .find(|s| s.epoch == epoch)
                .cloned();
            if found.is_some() || Instant::now() > deadline {
                return found;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}
