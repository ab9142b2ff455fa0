//! Lock-free measured-kernel telemetry.
//!
//! The serving layer executes millions of real kernel invocations; this
//! module is where their measured wall time goes instead of being thrown
//! away. [`Telemetry`] is a fixed-size ring of atomic aggregation slots:
//! recording a sample hashes its [`SampleKey`], probes the ring circularly
//! for the key's slot (claiming a free one with a single CAS on first
//! sight) and adds the observation with two `fetch_add`s. The hot path
//! takes **no locks, performs no allocation and never blocks** — a handful
//! of relaxed atomics per recorded execution — so it can sit directly on
//! the zero-lock registered-matrix path of
//! [`OracleService`](crate::OracleService).
//!
//! When the ring is full and a new key finds no slot within its probe
//! window, the sample is *dropped* (and counted in
//! [`TelemetryStats::dropped`]) rather than ever stalling a request:
//! telemetry is advisory, serving latency is not.
//!
//! Aggregates are monotonic — slots accumulate `(count, total seconds)`
//! per key for the lifetime of the ring. [`Telemetry::snapshot`] reads a
//! consistent-enough view for the
//! [`SampleCollector`](crate::adapt::SampleCollector) to label training
//! samples from; racing writers can at worst make a snapshot miss an
//! in-flight observation that the next snapshot will see.
//!
//! Relation to [`obs`](crate::obs): the tracer's `exec` spans and the
//! telemetry recorded under a [`SampleKey`] come from the *same* measured
//! execution — one `Instant` pair, observed once, fanned out to both
//! sinks — so span durations and telemetry seconds never disagree about
//! a kernel. The two share timestamps, **not** storage: telemetry
//! aggregates per-population `(count, seconds)` for training labels,
//! while the span ring keeps bounded per-request records for tracing.

use morpheus::format::FormatId;
use morpheus_machine::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Identity of one measured-kernel population: *which* kernel the observed
/// seconds belong to. Everything that changes the kernel's performance
/// behaviour is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleKey {
    /// [`morpheus::DynamicMatrix::structure_hash`] of the matrix *as
    /// executed* (i.e. in its realized format). The collector resolves
    /// this to a format-invariant canonical identity via its alias table.
    pub structure: u64,
    /// The storage format the kernel ran in.
    pub format: FormatId,
    /// The executed operation (including the SpMM right-hand-side count).
    pub op: Op,
    /// `size_of` of the matrix scalar.
    pub scalar_bytes: usize,
    /// Worker threads the execution used (1 for serial kernels and
    /// busy-pool fallbacks).
    pub workers: usize,
    /// [`morpheus::FormatParams::code`] of the parameters the matrix was
    /// converted with (0 = defaults): a served matrix's are its decision's
    /// (the defaults after a CSR fallback), recorded once at registration; a
    /// sweep trial's are what [`crate::propose_params`] proposes for its
    /// format. Two parameterizations of the same format (a 2x2 vs an 8x8
    /// BSR, different BELL ladders) are different kernels and must never
    /// alias in the ring.
    pub param_code: u8,
}

/// Version of the bit layout `pack_meta` writes. Bump whenever the field
/// widths or positions change so persisted consumers can reject mixed-layout
/// data. v1: 3-bit format, no parameter code. v2: 4-bit format (sized for a
/// growing registry), 7-bit [`morpheus::FormatParams::code`] in bits 56..63.
pub const PACK_LAYOUT_VERSION: u32 = 2;

// Packing layout v2 of the non-structure key fields (bit 63 is a tag so a
// packed key is never 0, the "free slot" sentinel):
// [0..4)  format index (sized for 16 registered formats),
// [4..28) op (0 = SpMV, k+1 = SpMM{k}, saturating),
// [28..36) scalar bytes (saturating), [36..52) workers (saturating),
// [52..56) zero (every format has one body; v2 wrote a body index here, 0
// for the one that is left), [56..63) format parameter code.
const PACK_TAG: u64 = 1 << 63;
const OP_MASK: u64 = (1 << 24) - 1;

fn pack_meta(key: &SampleKey) -> u64 {
    let op = match key.op {
        Op::Spmv => 0u64,
        Op::Spmm { k } => (k as u64 + 1).min(OP_MASK),
    };
    PACK_TAG
        | key.format.index() as u64
        | (op << 4)
        | ((key.scalar_bytes as u64).min(0xff) << 28)
        | ((key.workers as u64).min(0xffff) << 36)
        | (((key.param_code & 0x7f) as u64) << 56)
}

fn unpack_meta(structure: u64, packed: u64) -> SampleKey {
    let op = (packed >> 4) & OP_MASK;
    SampleKey {
        structure,
        format: FormatId::from_index((packed & 0xf) as usize).unwrap_or(FormatId::Csr),
        op: if op == 0 { Op::Spmv } else { Op::Spmm { k: (op - 1) as usize } },
        scalar_bytes: ((packed >> 28) & 0xff) as usize,
        workers: ((packed >> 36) & 0xffff) as usize,
        param_code: ((packed >> 56) & 0x7f) as u8,
    }
}

/// Mixes both key words into the probe start index (splitmix64 finalizer —
/// structure hashes are already well distributed, but the packed metadata
/// is not).
fn slot_hash(structure: u64, packed: u64) -> u64 {
    let mut z = structure ^ packed.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Slot lifecycle: `meta == 0` free; after a claimer's CAS the slot is
/// *owned* and its `structure` word may not yet be published
/// (`ready == 0`); once `ready` is 1 both key words are stable forever.
struct Slot {
    meta: AtomicU64,
    structure: AtomicU64,
    ready: AtomicU64,
    count: AtomicU64,
    nanos: AtomicU64,
    min_nanos: AtomicU64,
}

/// One aggregated population from a [`Telemetry::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredKernel {
    /// Which kernel the numbers belong to.
    pub key: SampleKey,
    /// Executions observed.
    pub count: u64,
    /// Total measured wall seconds across those executions.
    pub seconds: f64,
    /// Fastest single observed execution, seconds. The labeling signal:
    /// minima are comparable across execution contexts (a tight trial
    /// loop and round-robin serving traffic share the same best case),
    /// where means are dominated by whichever context ran more often.
    pub min_seconds: f64,
}

impl MeasuredKernel {
    /// Mean measured seconds per execution.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.seconds / self.count as f64
        }
    }
}

/// Occupancy and loss counters of a [`Telemetry`] ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryStats {
    /// Samples recorded (aggregated into some slot).
    pub recorded: u64,
    /// Samples dropped because the probe window found no slot.
    pub dropped: u64,
    /// Slots holding a key.
    pub slots_used: usize,
    /// Total slots in the ring.
    pub capacity: usize,
}

/// The atomic aggregation ring. See the [module docs](self) for the
/// concurrency model.
pub struct Telemetry {
    slots: Box<[Slot]>,
    mask: usize,
    probe_window: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// Ring with at least `capacity` slots (rounded up to a power of two,
    /// minimum 16). Sizing rule of thumb: **twice** the distinct
    /// (matrix, format, op, workers) populations you expect to observe —
    /// open addressing with a bounded probe window starts dropping new
    /// keys as occupancy approaches full. The default
    /// [`crate::adapt::CollectorConfig`] uses 1024.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16).next_power_of_two();
        Telemetry {
            slots: (0..capacity)
                .map(|_| Slot {
                    meta: AtomicU64::new(0),
                    structure: AtomicU64::new(0),
                    ready: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                    nanos: AtomicU64::new(0),
                    min_nanos: AtomicU64::new(u64::MAX),
                })
                .collect(),
            mask: capacity - 1,
            probe_window: capacity.min(64),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one measured execution. Lock-free: a hash, a short circular
    /// probe and two relaxed `fetch_add`s on the hot path. Drops the
    /// sample (counted) when the probe window is exhausted.
    pub fn record(&self, key: SampleKey, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let meta = pack_meta(&key);
        let start = slot_hash(key.structure, meta) as usize;
        for p in 0..self.probe_window {
            let slot = &self.slots[(start + p) & self.mask];
            let mut seen = slot.meta.load(Ordering::Acquire);
            if seen == 0 {
                match slot.meta.compare_exchange(0, meta, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        // We own the slot: publish the structure word, then
                        // aggregate.
                        slot.structure.store(key.structure, Ordering::Relaxed);
                        slot.ready.store(1, Ordering::Release);
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
                        slot.min_nanos.fetch_min(nanos, Ordering::Relaxed);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(actual) => seen = actual,
                }
            }
            if seen == meta
                && slot.ready.load(Ordering::Acquire) == 1
                && slot.structure.load(Ordering::Relaxed) == key.structure
            {
                slot.count.fetch_add(1, Ordering::Relaxed);
                slot.nanos.fetch_add(nanos, Ordering::Relaxed);
                slot.min_nanos.fetch_min(nanos, Ordering::Relaxed);
                self.recorded.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Occupied by a different key (or a same-key claim whose
            // structure word is not yet visible — then this sample lands in
            // a second slot for the key, which the snapshot re-aggregates).
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every ready slot, re-aggregates duplicate keys and returns
    /// the populations sorted by key (deterministic order — retraining on
    /// a snapshot must be reproducible).
    pub fn snapshot(&self) -> Vec<MeasuredKernel> {
        let mut agg: std::collections::BTreeMap<SampleKey, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for slot in self.slots.iter() {
            if slot.ready.load(Ordering::Acquire) != 1 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let structure = slot.structure.load(Ordering::Relaxed);
            let count = slot.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let nanos = slot.nanos.load(Ordering::Relaxed);
            let min = slot.min_nanos.load(Ordering::Relaxed);
            let e = agg.entry(unpack_meta(structure, meta)).or_insert((0, 0, u64::MAX));
            e.0 += count;
            e.1 += nanos;
            e.2 = e.2.min(min);
        }
        agg.into_iter()
            .map(|(key, (count, nanos, min))| MeasuredKernel {
                key,
                count,
                seconds: nanos as f64 * 1e-9,
                min_seconds: min as f64 * 1e-9,
            })
            .collect()
    }

    /// Occupancy and loss counters (all atomic reads).
    pub fn stats(&self) -> TelemetryStats {
        TelemetryStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            slots_used: self.slots.iter().filter(|s| s.ready.load(Ordering::Relaxed) == 1).count(),
            capacity: self.slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(structure: u64, format: FormatId) -> SampleKey {
        SampleKey { structure, format, op: Op::Spmv, scalar_bytes: 8, workers: 1, param_code: 0 }
    }

    #[test]
    fn pack_roundtrips_every_field() {
        for (fmt, op, scalar, workers, param_code) in [
            (FormatId::Csr, Op::Spmv, 8usize, 1usize, 0u8),
            (FormatId::Hdc, Op::Spmm { k: 32 }, 4, 12, 5),
            (FormatId::Dia, Op::Spmm { k: 1 }, 8, 65535, 1),
            (FormatId::Csr, Op::Spmv, 8, 7, 0),
            // Every field at its layout maximum: the two highest registered
            // format ids, the full 7-bit parameter code, saturated widths.
            (FormatId::Bsr, Op::Spmm { k: 1 << 23 }, 255, 65535, 0x7f),
            (FormatId::Bell, Op::Spmm { k: (OP_MASK as usize) - 1 }, 255, 65535, 0x7f),
        ] {
            let k = SampleKey {
                structure: 0xdead_beef,
                format: fmt,
                op,
                scalar_bytes: scalar,
                workers,
                param_code,
            };
            let packed = pack_meta(&k);
            assert_ne!(packed, 0);
            assert_eq!(unpack_meta(k.structure, packed), k);
        }
    }

    #[test]
    fn layout_v2_fits_every_registered_format() {
        // The 4-bit format field must round-trip every current id with
        // headroom — aliasing two formats into one slot would blend their
        // populations.
        assert_eq!(PACK_LAYOUT_VERSION, 2);
        for fmt in morpheus::format::ALL_FORMATS {
            assert!(fmt.index() < 16, "{fmt} overflows the 4-bit format field");
            let k = SampleKey { format: fmt, ..key(7, fmt) };
            assert_eq!(unpack_meta(7, pack_meta(&k)).format, fmt);
        }
    }

    #[test]
    fn parameterizations_are_distinct_telemetry_populations() {
        // A 2x2-blocked and an 8x8-blocked BSR of the same matrix are
        // different kernels: their samples must never alias into one slot.
        let t = Telemetry::new(64);
        let small = SampleKey { param_code: 1, ..key(42, FormatId::Bsr) };
        let large = SampleKey { param_code: 3, ..key(42, FormatId::Bsr) };
        assert_ne!(pack_meta(&small), pack_meta(&large));
        t.record(small, Duration::from_micros(30));
        t.record(large, Duration::from_micros(10));
        t.record(large, Duration::from_micros(12));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        let s = snap.iter().find(|m| m.key.param_code == 1).unwrap();
        let l = snap.iter().find(|m| m.key.param_code == 3).unwrap();
        assert_eq!((s.count, l.count), (1, 2));
        assert!(l.min_seconds < s.min_seconds);
    }

    #[test]
    fn aggregates_by_key() {
        let t = Telemetry::new(64);
        t.record(key(1, FormatId::Csr), Duration::from_micros(10));
        t.record(key(1, FormatId::Csr), Duration::from_micros(30));
        t.record(key(1, FormatId::Dia), Duration::from_micros(5));
        t.record(key(2, FormatId::Csr), Duration::from_micros(7));

        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        let csr1 = snap.iter().find(|m| m.key == key(1, FormatId::Csr)).unwrap();
        assert_eq!(csr1.count, 2);
        assert!((csr1.seconds - 40e-6).abs() < 1e-12);
        assert!((csr1.mean_seconds() - 20e-6).abs() < 1e-12);
        let stats = t.stats();
        assert_eq!((stats.recorded, stats.dropped, stats.slots_used), (4, 0, 3));
    }

    #[test]
    fn zero_structure_hash_is_a_valid_key() {
        let t = Telemetry::new(16);
        t.record(key(0, FormatId::Ell), Duration::from_nanos(100));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].key.structure, 0);
        assert_eq!(snap[0].count, 1);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let t = Telemetry::new(16); // minimum size; probe window = 16
        for s in 0..200u64 {
            t.record(key(s, FormatId::Csr), Duration::from_nanos(1));
        }
        let stats = t.stats();
        assert_eq!(stats.capacity, 16);
        assert_eq!(stats.slots_used, 16, "ring must fill completely");
        assert!(stats.dropped > 0, "overflow must drop, not evict");
        assert_eq!(stats.recorded + stats.dropped, 200);
        // Established keys still aggregate.
        let first = t.snapshot()[0].key;
        t.record(first, Duration::from_nanos(1));
        assert_eq!(t.stats().recorded, stats.recorded + 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let t = std::sync::Arc::new(Telemetry::new(256));
        let threads = 8u64;
        let per_thread = 2000u64;
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let k = SampleKey {
                            structure: i % 20,
                            format: FormatId::from_index((w % 6) as usize).unwrap(),
                            op: Op::Spmv,
                            scalar_bytes: 8,
                            workers: 1,
                            param_code: 0,
                        };
                        t.record(k, Duration::from_nanos(10));
                    }
                });
            }
        });
        let stats = t.stats();
        assert_eq!(stats.dropped, 0, "120 keys must fit a half-empty 256-slot ring: {stats:?}");
        assert_eq!(stats.recorded, threads * per_thread);
        let total: u64 = t.snapshot().iter().map(|m| m.count).sum();
        assert_eq!(total, threads * per_thread, "every sample must be aggregated exactly once");
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let t = Telemetry::new(64);
        for s in [9u64, 3, 7, 1] {
            t.record(key(s, FormatId::Csr), Duration::from_nanos(5));
        }
        let a: Vec<u64> = t.snapshot().iter().map(|m| m.key.structure).collect();
        assert_eq!(a, vec![1, 3, 7, 9]);
    }
}
