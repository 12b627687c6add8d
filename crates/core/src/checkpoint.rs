//! Bit-identical checkpoint/restore of a running simulation.
//!
//! A [`Checkpoint`] captures the **complete** dynamic state of a
//! [`HanSimulation`](crate::simulation::HanSimulation) at a round
//! boundary: every Device Interface (duty-cycle bookkeeping, counters,
//! publish-side change detection), every planner's persisted power level,
//! the communication plane (views — pooled or per-node — plus the
//! freshness matrix, the Gilbert–Elliott channel states, the packet-mode
//! item stores and sync-staleness counters, and the RNG words), the load
//! trace, and all run accumulators including the resilience counters.
//!
//! The restore contract is **bit-identity**: a run that is checkpointed
//! at round *k*, serialized, deserialized and resumed produces the same
//! schedule digest, load trace and CP statistics as the uninterrupted
//! run — proven by `checkpoint_restore_is_bit_identical` in
//! `crates/core/tests/prop_fault.rs`.
//!
//! # Wire format
//!
//! A versioned little-endian byte stream: the 8-byte magic `HANCKPT1`,
//! a configuration fingerprint (checked at resume so a checkpoint cannot
//! be replayed into a different scenario), then every state field in a
//! fixed order. `Option` values carry a one-byte tag; variable-length
//! sequences a `u64` count. Timestamps are stored at full microsecond
//! resolution — the lossy 23-byte status wire format is deliberately
//! *not* reused here, because checkpointing must not round anything.

use crate::cp::{CpExport, CpStats, PacketExport, StoreExport};
use crate::pool::{PoolSlotExport, ViewPoolExport, ViewPoolStats};
use han_device::appliance::DeviceId;
use han_device::duty_cycle::{ActiveSnapshot, DutyCyclerSnapshot};
use han_device::interface::{DeviceInterfaceSnapshot, DiCounters};
use han_device::status::StatusRecord;
use han_metrics::ResilienceStats;
use han_sim::time::{SimDuration, SimTime};
use han_st::stats::DisseminationStats;
use std::fmt;

/// The 8-byte stream magic, doubling as the format version.
const MAGIC: &[u8; 8] = b"HANCKPT1";

/// A point-in-time capture of a running simulation, restorable to a
/// bit-identical continuation (see the [module docs](self)).
///
/// Obtain one from
/// [`HanSimulation::run_checkpointed`](crate::simulation::HanSimulation::run_checkpointed),
/// persist it with [`Checkpoint::to_bytes`], and resume with
/// [`HanSimulation::resume`](crate::simulation::HanSimulation::resume).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub(crate) state: SimState,
}

impl Checkpoint {
    /// The round index the resumed run will execute first.
    pub fn round(&self) -> u64 {
        self.state.next_round
    }

    /// Serializes to the versioned byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.state)
    }

    /// Deserializes a byte stream produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a short, foreign or corrupted stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        decode(bytes).map(|state| Checkpoint { state })
    }
}

/// Errors reading or resuming a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream ended before the expected field.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// The stream does not start with the `HANCKPT1` magic.
    BadMagic,
    /// A tag or flag byte held an undefined value.
    BadValue {
        /// Byte offset of the offending value.
        offset: usize,
    },
    /// The checkpoint was taken under a different simulation
    /// configuration and cannot resume this one.
    ConfigMismatch {
        /// Fingerprint of the configuration being resumed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// Well-formed state followed by unexpected extra bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CheckpointError::BadMagic => f.write_str("not a HANCKPT1 checkpoint stream"),
            CheckpointError::BadValue { offset } => {
                write!(f, "undefined tag or flag at byte {offset}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
            CheckpointError::TrailingBytes { extra } => {
                write!(
                    f,
                    "{extra} unexpected trailing bytes after checkpoint state"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The full dynamic state of a paused simulation, as captured by the
/// driver. Everything needed to continue bit-identically; nothing that
/// can be re-derived from the (fingerprinted) configuration.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    /// Fingerprint of the originating configuration.
    pub(crate) fingerprint: u64,
    /// The round index the resumed run executes first (== rounds done).
    pub(crate) next_round: u64,
    pub(crate) divergent_rounds: u64,
    pub(crate) delivered: u64,
    pub(crate) next_request: u64,
    pub(crate) last_load_kw: f64,
    pub(crate) schedule_digest: u64,
    pub(crate) trace: Vec<(SimTime, f64)>,
    pub(crate) last_command: Vec<bool>,
    pub(crate) dis: Vec<DeviceInterfaceSnapshot>,
    /// Per-planner `(level_kw, last_update)` persisted slew state.
    pub(crate) planners: Vec<(f64, Option<SimTime>)>,
    pub(crate) cp: CpExport,
    pub(crate) resilience: ResilienceStats,
    /// Round at which the last fault cleared, while re-agreement is
    /// still being awaited.
    pub(crate) recovery_since: Option<u64>,
    pub(crate) fault_active_last: bool,
    pub(crate) last_miss_total: u32,
}

// ---------------------------------------------------------------------
// Primitive little-endian writer/reader.
// ---------------------------------------------------------------------

/// Little-endian byte writer for the checkpoint stream.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    pub(crate) fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    pub(crate) fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }

    pub(crate) fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            None => self.u8(0),
            Some(t) => {
                self.u8(1);
                self.time(t);
            }
        }
    }
}

/// Little-endian byte reader with typed truncation errors.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the next `n` raw bytes (shared with the sibling `HANSRV01`
    /// online-snapshot codec, which embeds whole `HANCKPT1` streams as
    /// length-prefixed blobs).
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { offset: self.pos });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::BadValue { offset }),
        }
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn len(&mut self) -> Result<usize, CheckpointError> {
        let offset = self.pos;
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::BadValue { offset })
    }

    pub(crate) fn time(&mut self) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    pub(crate) fn duration(&mut self) -> Result<SimDuration, CheckpointError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }

    pub(crate) fn opt_time(&mut self) -> Result<Option<SimTime>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.time()?)
        } else {
            None
        })
    }
}

// ---------------------------------------------------------------------
// State codec.
// ---------------------------------------------------------------------

fn encode(state: &SimState) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(MAGIC);
    e.u64(state.fingerprint);
    e.u64(state.next_round);
    e.u64(state.divergent_rounds);
    e.u64(state.delivered);
    e.u64(state.next_request);
    e.f64(state.last_load_kw);
    e.u64(state.schedule_digest);

    e.len(state.trace.len());
    for &(t, kw) in &state.trace {
        e.time(t);
        e.f64(kw);
    }

    e.len(state.last_command.len());
    for &c in &state.last_command {
        e.bool(c);
    }

    e.len(state.dis.len());
    for di in &state.dis {
        encode_di(&mut e, di);
    }

    e.len(state.planners.len());
    for &(level, last) in &state.planners {
        e.f64(level);
        e.opt_time(last);
    }

    encode_cp(&mut e, &state.cp);
    encode_resilience(&mut e, &state.resilience);

    match state.recovery_since {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            e.u64(r);
        }
    }
    e.bool(state.fault_active_last);
    e.u32(state.last_miss_total);
    e.into_bytes()
}

fn decode(bytes: &[u8]) -> Result<SimState, CheckpointError> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len()).map_err(|_| CheckpointError::BadMagic)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let fingerprint = d.u64()?;
    let next_round = d.u64()?;
    let divergent_rounds = d.u64()?;
    let delivered = d.u64()?;
    let next_request = d.u64()?;
    let last_load_kw = d.f64()?;
    let schedule_digest = d.u64()?;

    let mut trace = Vec::new();
    for _ in 0..d.len()? {
        let t = d.time()?;
        let kw = d.f64()?;
        trace.push((t, kw));
    }

    let mut last_command = Vec::new();
    for _ in 0..d.len()? {
        last_command.push(d.bool()?);
    }

    let mut dis = Vec::new();
    for _ in 0..d.len()? {
        dis.push(decode_di(&mut d)?);
    }

    let mut planners = Vec::new();
    for _ in 0..d.len()? {
        let level = d.f64()?;
        let last = d.opt_time()?;
        planners.push((level, last));
    }

    let cp = decode_cp(&mut d)?;
    let resilience = decode_resilience(&mut d)?;

    let recovery_since = if d.bool()? { Some(d.u64()?) } else { None };
    let fault_active_last = d.bool()?;
    let last_miss_total = d.u32()?;

    if d.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes {
            extra: d.remaining(),
        });
    }
    Ok(SimState {
        fingerprint,
        next_round,
        divergent_rounds,
        delivered,
        next_request,
        last_load_kw,
        schedule_digest,
        trace,
        last_command,
        dis,
        planners,
        cp,
        resilience,
        recovery_since,
        fault_active_last,
        last_miss_total,
    })
}

/// Full-resolution status-record codec — microsecond-exact, unlike the
/// 23-byte second-granular wire format.
fn encode_record(e: &mut Enc, r: &StatusRecord) {
    e.u32(r.device.0);
    e.bool(r.active);
    e.bool(r.on);
    e.duration(r.owed);
    e.opt_time(r.deadline);
    e.u32(r.windows_remaining);
    e.opt_time(r.arrival);
    e.opt_time(r.planned_start);
    e.u16(r.power_w);
    e.duration(r.min_dcd);
    e.duration(r.max_dcp);
}

fn decode_record(d: &mut Dec<'_>) -> Result<StatusRecord, CheckpointError> {
    Ok(StatusRecord {
        device: DeviceId(d.u32()?),
        active: d.bool()?,
        on: d.bool()?,
        owed: d.duration()?,
        deadline: d.opt_time()?,
        windows_remaining: d.u32()?,
        arrival: d.opt_time()?,
        planned_start: d.opt_time()?,
        power_w: d.u16()?,
        min_dcd: d.duration()?,
        max_dcp: d.duration()?,
    })
}

fn encode_opt_record(e: &mut Enc, r: &Option<StatusRecord>) {
    match r {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            encode_record(e, r);
        }
    }
}

fn decode_opt_record(d: &mut Dec<'_>) -> Result<Option<StatusRecord>, CheckpointError> {
    Ok(if d.bool()? {
        Some(decode_record(d)?)
    } else {
        None
    })
}

fn encode_di(e: &mut Enc, di: &DeviceInterfaceSnapshot) {
    match &di.cycler.active {
        None => e.u8(0),
        Some(a) => {
            e.u8(1);
            e.time(a.window_start);
            e.u32(a.windows_remaining);
            e.duration(a.served_in_window);
            e.opt_time(a.on_since);
            e.opt_time(a.instance_start);
            e.time(a.arrival);
        }
    }
    e.u32(di.counters.deadline_misses);
    e.u32(di.counters.refused_early_off);
    e.u32(di.counters.windows_served);
    e.u32(di.seq);
    e.opt_time(di.planned_start);
    encode_opt_record(e, &di.last_published);
}

fn decode_di(d: &mut Dec<'_>) -> Result<DeviceInterfaceSnapshot, CheckpointError> {
    let active = if d.bool()? {
        Some(ActiveSnapshot {
            window_start: d.time()?,
            windows_remaining: d.u32()?,
            served_in_window: d.duration()?,
            on_since: d.opt_time()?,
            instance_start: d.opt_time()?,
            arrival: d.time()?,
        })
    } else {
        None
    };
    Ok(DeviceInterfaceSnapshot {
        cycler: DutyCyclerSnapshot { active },
        counters: DiCounters {
            deadline_misses: d.u32()?,
            refused_early_off: d.u32()?,
            windows_served: d.u32()?,
        },
        seq: d.u32()?,
        planned_start: d.opt_time()?,
        last_published: decode_opt_record(d)?,
    })
}

fn encode_cp(e: &mut Enc, cp: &CpExport) {
    for w in cp.rng {
        e.u64(w);
    }
    e.u64(cp.round_index);
    encode_cp_stats(e, &cp.stats);
    e.len(cp.last_refresh.len());
    for &r in &cp.last_refresh {
        e.u64(r);
    }
    e.len(cp.ge_bad.len());
    for &b in &cp.ge_bad {
        e.bool(b);
    }
    e.bool(cp.per_node_rows);
    match &cp.store {
        StoreExport::Pooled { pool, handles } => {
            e.u8(0);
            e.len(pool.slots.len());
            for slot in &pool.slots {
                e.u32(slot.refs);
                e.u64(slot.key);
                e.len(slot.records.len());
                for r in &slot.records {
                    encode_opt_record(e, r);
                }
            }
            e.len(pool.free.len());
            for &f in &pool.free {
                e.u32(f);
            }
            e.len(pool.live);
            e.len(pool.peak);
            e.len(handles.len());
            for &h in handles {
                e.u32(h);
            }
        }
        StoreExport::PerNode { views } => {
            e.u8(1);
            e.len(views.len());
            for row in views {
                e.len(row.len());
                for r in row {
                    encode_opt_record(e, r);
                }
            }
        }
    }
    match &cp.packet {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.len(p.items.len());
            for store in &p.items {
                e.len(store.len());
                for (origin, seq, payload) in store {
                    e.u32(*origin);
                    e.u32(*seq);
                    e.len(payload.len());
                    e.raw(payload);
                }
            }
            e.len(p.last_seen.len());
            for row in &p.last_seen {
                e.len(row.len());
                for seen in row {
                    match seen {
                        None => e.u8(0),
                        Some(s) => {
                            e.u8(1);
                            e.u32(*s);
                        }
                    }
                }
            }
            e.len(p.staleness.len());
            for &s in &p.staleness {
                e.u32(s);
            }
        }
    }
}

fn decode_cp(d: &mut Dec<'_>) -> Result<CpExport, CheckpointError> {
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = d.u64()?;
    }
    let round_index = d.u64()?;
    let stats = decode_cp_stats(d)?;
    let mut last_refresh = Vec::new();
    for _ in 0..d.len()? {
        last_refresh.push(d.u64()?);
    }
    let mut ge_bad = Vec::new();
    for _ in 0..d.len()? {
        ge_bad.push(d.bool()?);
    }
    let per_node_rows = d.bool()?;
    let store_tag_offset = d.pos;
    let store = match d.u8()? {
        0 => {
            let mut slots = Vec::new();
            for _ in 0..d.len()? {
                let refs = d.u32()?;
                let key = d.u64()?;
                let mut records = Vec::new();
                for _ in 0..d.len()? {
                    records.push(decode_opt_record(d)?);
                }
                slots.push(PoolSlotExport { refs, key, records });
            }
            let mut free = Vec::new();
            for _ in 0..d.len()? {
                free.push(d.u32()?);
            }
            let live = d.len()?;
            let peak = d.len()?;
            let mut handles = Vec::new();
            for _ in 0..d.len()? {
                handles.push(d.u32()?);
            }
            StoreExport::Pooled {
                pool: ViewPoolExport {
                    slots,
                    free,
                    live,
                    peak,
                },
                handles,
            }
        }
        1 => {
            let mut views = Vec::new();
            for _ in 0..d.len()? {
                let mut row = Vec::new();
                for _ in 0..d.len()? {
                    row.push(decode_opt_record(d)?);
                }
                views.push(row);
            }
            StoreExport::PerNode { views }
        }
        _ => {
            return Err(CheckpointError::BadValue {
                offset: store_tag_offset,
            })
        }
    };
    let packet = if d.bool()? {
        let mut items = Vec::new();
        let stores = d.len()?;
        for _ in 0..stores {
            let mut store = Vec::new();
            for _ in 0..d.len()? {
                let offset = d.pos;
                let origin = d.u32()?;
                // Item stores are dense by origin, one slot per node: an
                // origin beyond the network would size that table.
                if origin as usize >= stores {
                    return Err(CheckpointError::BadValue { offset });
                }
                let seq = d.u32()?;
                let len = d.len()?;
                let payload = d.take(len)?.to_vec();
                store.push((origin, seq, payload));
            }
            items.push(store);
        }
        let mut last_seen = Vec::new();
        for _ in 0..d.len()? {
            let mut row = Vec::new();
            for _ in 0..d.len()? {
                row.push(if d.bool()? { Some(d.u32()?) } else { None });
            }
            last_seen.push(row);
        }
        let mut staleness = Vec::new();
        for _ in 0..d.len()? {
            staleness.push(d.u32()?);
        }
        Some(PacketExport {
            items,
            last_seen,
            staleness,
        })
    } else {
        None
    };
    Ok(CpExport {
        rng,
        round_index,
        stats,
        last_refresh,
        ge_bad,
        per_node_rows,
        store,
        packet,
    })
}

fn encode_cp_stats(e: &mut Enc, s: &CpStats) {
    e.u64(s.rounds);
    e.u64(s.refreshed_records);
    e.u64(s.expected_records);
    e.u64(s.full_rounds);
    match &s.dissemination {
        None => e.u8(0),
        Some(d) => {
            e.u8(1);
            let (rounds, a2a, rel_sum, worst, tx, radio_on, nodes) = d.raw_parts();
            e.u64(rounds);
            e.u64(a2a);
            e.f64(rel_sum);
            e.f64(worst);
            e.u64(tx);
            e.duration(radio_on);
            e.len(nodes);
        }
    }
    match s.worst_sync_error {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            e.duration(w);
        }
    }
    match &s.view_pool {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.len(p.live_views);
            e.len(p.peak_views);
            e.len(p.slots);
            e.len(p.resident_bytes);
            e.len(p.per_node_bytes);
        }
    }
}

fn decode_cp_stats(d: &mut Dec<'_>) -> Result<CpStats, CheckpointError> {
    let rounds = d.u64()?;
    let refreshed_records = d.u64()?;
    let expected_records = d.u64()?;
    let full_rounds = d.u64()?;
    let dissemination = if d.bool()? {
        let parts = (
            d.u64()?,
            d.u64()?,
            d.f64()?,
            d.f64()?,
            d.u64()?,
            d.duration()?,
            d.len()?,
        );
        Some(DisseminationStats::from_raw_parts(parts))
    } else {
        None
    };
    let worst_sync_error = if d.bool()? { Some(d.duration()?) } else { None };
    let view_pool = if d.bool()? {
        Some(ViewPoolStats {
            live_views: d.len()?,
            peak_views: d.len()?,
            slots: d.len()?,
            resident_bytes: d.len()?,
            per_node_bytes: d.len()?,
        })
    } else {
        None
    };
    Ok(CpStats {
        rounds,
        refreshed_records,
        expected_records,
        full_rounds,
        dissemination,
        worst_sync_error,
        view_pool,
    })
}

fn encode_resilience(e: &mut Enc, r: &ResilienceStats) {
    e.u64(r.down_node_rounds);
    e.u64(r.outage_rounds);
    e.len(r.recoveries.len());
    for &rec in &r.recoveries {
        e.u64(rec);
    }
    e.u64(r.misses_while_down);
    e.u64(r.misses_during_outage);
}

fn decode_resilience(d: &mut Dec<'_>) -> Result<ResilienceStats, CheckpointError> {
    let down_node_rounds = d.u64()?;
    let outage_rounds = d.u64()?;
    let mut recoveries = Vec::new();
    for _ in 0..d.len()? {
        recoveries.push(d.u64()?);
    }
    Ok(ResilienceStats {
        down_node_rounds,
        outage_rounds,
        recoveries,
        misses_while_down: d.u64()?,
        misses_during_outage: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(id: u32) -> StatusRecord {
        StatusRecord {
            device: DeviceId(id),
            active: true,
            on: id.is_multiple_of(2),
            owed: SimDuration::from_micros(90_000_001),
            deadline: Some(SimTime::from_micros(123_456_789)),
            windows_remaining: 3,
            arrival: Some(SimTime::from_micros(7)),
            planned_start: None,
            power_w: 1500,
            min_dcd: SimDuration::from_mins(15),
            max_dcp: SimDuration::from_mins(30),
        }
    }

    fn sample_state() -> SimState {
        SimState {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            next_round: 17,
            divergent_rounds: 2,
            delivered: 5,
            next_request: 5,
            last_load_kw: 3.25,
            schedule_digest: 42,
            trace: vec![(SimTime::ZERO, 0.0), (SimTime::from_micros(2_000_001), 2.5)],
            last_command: vec![false, true, false],
            dis: vec![
                DeviceInterfaceSnapshot {
                    cycler: DutyCyclerSnapshot { active: None },
                    counters: DiCounters::default(),
                    seq: 1,
                    planned_start: None,
                    last_published: None,
                },
                DeviceInterfaceSnapshot {
                    cycler: DutyCyclerSnapshot {
                        active: Some(ActiveSnapshot {
                            window_start: SimTime::from_mins(3),
                            windows_remaining: 2,
                            served_in_window: SimDuration::from_secs(30),
                            on_since: Some(SimTime::from_mins(4)),
                            instance_start: Some(SimTime::from_mins(4)),
                            arrival: SimTime::from_mins(1),
                        }),
                    },
                    counters: DiCounters {
                        deadline_misses: 1,
                        refused_early_off: 2,
                        windows_served: 3,
                    },
                    seq: 9,
                    planned_start: Some(SimTime::from_mins(6)),
                    last_published: Some(sample_record(1)),
                },
            ],
            planners: vec![(4.0, Some(SimTime::from_secs(10))), (0.0, None)],
            cp: CpExport {
                rng: [1, 2, 3, 4],
                round_index: 17,
                stats: CpStats {
                    rounds: 17,
                    refreshed_records: 120,
                    expected_records: 136,
                    full_rounds: 11,
                    dissemination: Some(DisseminationStats::from_raw_parts((
                        17,
                        15,
                        16.5,
                        0.88,
                        900,
                        SimDuration::from_millis(120),
                        8,
                    ))),
                    worst_sync_error: Some(SimDuration::from_micros(44)),
                    view_pool: Some(ViewPoolStats {
                        live_views: 2,
                        peak_views: 3,
                        slots: 3,
                        resident_bytes: 640,
                        per_node_bytes: 1280,
                    }),
                },
                last_refresh: vec![0, 3, u64::MAX, 16],
                ge_bad: vec![true, false],
                per_node_rows: true,
                store: StoreExport::Pooled {
                    pool: ViewPoolExport {
                        slots: vec![
                            PoolSlotExport {
                                refs: 2,
                                key: 77,
                                records: vec![Some(sample_record(0)), None],
                            },
                            PoolSlotExport {
                                refs: 0,
                                key: 0,
                                records: Vec::new(),
                            },
                        ],
                        free: vec![1],
                        live: 1,
                        peak: 2,
                    },
                    handles: vec![0, 0],
                },
                packet: Some(PacketExport {
                    items: vec![vec![(0, 4, vec![1, 2, 3])], vec![]],
                    last_seen: vec![vec![Some(4), None], vec![None, Some(2)]],
                    staleness: vec![0, 5],
                }),
            },
            resilience: ResilienceStats {
                down_node_rounds: 12,
                outage_rounds: 3,
                recoveries: vec![4, 9],
                misses_while_down: 1,
                misses_during_outage: 0,
            },
            recovery_since: Some(15),
            fault_active_last: true,
            last_miss_total: 1,
        }
    }

    fn assert_states_equal(a: &SimState, b: &SimState) {
        // SimState holds f64s, so no derived Eq; field-by-field via the
        // Debug rendering is exact for the payloads involved (bit-level
        // f64 round-trip through to_bits/from_bits).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn round_trips_bit_exactly() {
        let state = sample_state();
        let bytes = Checkpoint {
            state: state.clone(),
        }
        .to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_states_equal(&state, &back.state);
        assert_eq!(back.round(), 17);
        // Idempotent re-encode.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn per_node_store_round_trips() {
        let mut state = sample_state();
        state.cp.store = StoreExport::PerNode {
            views: vec![vec![Some(sample_record(0)), None], vec![None, None]],
        };
        state.cp.packet = None;
        let bytes = Checkpoint {
            state: state.clone(),
        }
        .to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_states_equal(&state, &back.state);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = Checkpoint {
            state: sample_state(),
        }
        .to_bytes();
        for cut in [0, 4, 8, 20, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadMagic
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn item_origin_beyond_the_network_is_typed() {
        let mut state = sample_state();
        let packet = state.cp.packet.as_mut().expect("sample has packet state");
        packet.items[1].push((2, 1, vec![9]));
        let bytes = Checkpoint { state }.to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadValue { .. })
        ));
    }

    #[test]
    fn foreign_streams_rejected() {
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTACKPT________"),
            Err(CheckpointError::BadMagic)
        ));
        let mut bytes = Checkpoint {
            state: sample_state(),
        }
        .to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::Truncated { offset: 12 }
            .to_string()
            .contains("12"));
        assert!(CheckpointError::BadMagic.to_string().contains("HANCKPT1"));
        assert!(CheckpointError::ConfigMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("different configuration"));
        assert!(CheckpointError::TrailingBytes { extra: 3 }
            .to_string()
            .contains("3"));
        assert!(CheckpointError::BadValue { offset: 9 }
            .to_string()
            .contains("9"));
    }
}
