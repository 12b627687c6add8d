//! The feeder → substation → city reduction tree and its wire format.
//!
//! At city scale no per-home trace travels upward — each feeder's homes
//! fold into one [`FeederAggregate`], which a worker process streams as
//! a self-delimiting byte record (the same fixed-width little-endian
//! idiom as [`han_device::status::StatusRecord::encode_into`], scaled up
//! to carry series). The city layer orders the records by feeder id —
//! which is what makes the reduction independent of how feeders were
//! partitioned across workers — and sums them level by level: feeders
//! into substations (groups of `substation_fanin`), substations into the
//! city.

use han_metrics::stats::Summary;

/// Magic prefix of the feeder-aggregate wire record.
const MAGIC: &[u8; 8] = b"HANFAGG1";

/// Per-home digest triple carried up the tree in place of the home's
/// trace: enough to prove equivalence against a solo run, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeDigest {
    /// City-wide home id (`feeder * homes_per_feeder + slot`).
    pub home: u64,
    /// Schedule digest of the home's uncoordinated run (0 by contract —
    /// only coordinated runs digest — but carried so the record stays
    /// strategy-agnostic).
    pub uncoordinated: u64,
    /// Schedule digest of the home's coordinated run.
    pub coordinated: u64,
}

/// One feeder's homes folded into a single record: counters, energies,
/// the two per-minute aggregate series, and per-home digests.
///
/// This is the only thing the city keeps per feeder — per-home traces are
/// dropped as soon as they are folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct FeederAggregate {
    /// Feeder id within the city (0-based, dense).
    pub feeder: u32,
    /// Homes folded into this record.
    pub homes: u32,
    /// Devices across those homes.
    pub devices: u32,
    /// Communication rounds executed (coordinated runs, summed).
    pub rounds: u64,
    /// Deadline misses across homes (coordinated runs, summed).
    pub deadline_misses: u64,
    /// Windows served across homes (coordinated runs, summed).
    pub windows_served: u64,
    /// Divergent rounds across homes (coordinated runs, summed).
    pub divergent_rounds: u64,
    /// Energy delivered, all homes uncoordinated (kWh).
    pub energy_uncoordinated_kwh: f64,
    /// Energy delivered, all homes coordinated (kWh).
    pub energy_coordinated_kwh: f64,
    /// Sum of individual home peaks, uncoordinated (kW) — the
    /// denominator of the feeder's coincidence factor.
    pub sum_home_peaks_uncoordinated: f64,
    /// Sum of individual home peaks, coordinated (kW).
    pub sum_home_peaks_coordinated: f64,
    /// Feeder load per minute, all homes uncoordinated (kW).
    pub samples_uncoordinated: Vec<f64>,
    /// Feeder load per minute, all homes coordinated (kW).
    pub samples_coordinated: Vec<f64>,
    /// Per-home digest triples, in home-id order.
    pub home_digests: Vec<HomeDigest>,
}

/// Why a feeder-aggregate record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateWireError {
    /// The buffer did not start with the `HANFAGG1` magic.
    BadMagic,
    /// The buffer ended before the record did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes it had left.
        have: usize,
    },
}

impl std::fmt::Display for AggregateWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateWireError::BadMagic => {
                write!(f, "feeder aggregate record does not start with HANFAGG1")
            }
            AggregateWireError::Truncated { needed, have } => write!(
                f,
                "feeder aggregate record truncated: needed {needed} more byte(s), had {have}"
            ),
        }
    }
}

impl std::error::Error for AggregateWireError {}

/// Little-endian cursor over a byte slice; every read is length-checked.
struct Cursor<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
    /// Bytes left unread — the bound every wire-claimed element count is
    /// clamped against before pre-allocating (a corrupted length field
    /// must fail typed on the next read, not abort on a huge reserve).
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'b [u8], AggregateWireError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(AggregateWireError::Truncated { needed: n, have });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u32(&mut self) -> Result<u32, AggregateWireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, AggregateWireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn f64(&mut self) -> Result<f64, AggregateWireError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl FeederAggregate {
    /// A record of feeder `feeder` with nothing folded in yet.
    pub(crate) fn empty(feeder: u32) -> Self {
        FeederAggregate {
            feeder,
            homes: 0,
            devices: 0,
            rounds: 0,
            deadline_misses: 0,
            windows_served: 0,
            divergent_rounds: 0,
            energy_uncoordinated_kwh: 0.0,
            energy_coordinated_kwh: 0.0,
            sum_home_peaks_uncoordinated: 0.0,
            sum_home_peaks_coordinated: 0.0,
            samples_uncoordinated: Vec::new(),
            samples_coordinated: Vec::new(),
            home_digests: Vec::new(),
        }
    }

    /// Folds `other` into this record: counters and energies add, series
    /// sum elementwise through [`sum_series`], digests append. Homes fold
    /// into feeders and feeders into the city through this one function,
    /// always in id order, so every float sum has one fixed order.
    pub(crate) fn absorb(&mut self, other: &FeederAggregate) {
        self.homes += other.homes;
        self.devices += other.devices;
        self.rounds += other.rounds;
        self.deadline_misses += other.deadline_misses;
        self.windows_served += other.windows_served;
        self.divergent_rounds += other.divergent_rounds;
        self.energy_uncoordinated_kwh += other.energy_uncoordinated_kwh;
        self.energy_coordinated_kwh += other.energy_coordinated_kwh;
        self.sum_home_peaks_uncoordinated += other.sum_home_peaks_uncoordinated;
        self.sum_home_peaks_coordinated += other.sum_home_peaks_coordinated;
        sum_series(
            &mut self.samples_uncoordinated,
            &other.samples_uncoordinated,
        );
        sum_series(&mut self.samples_coordinated, &other.samples_coordinated);
        self.home_digests.extend_from_slice(&other.home_digests);
    }

    /// Serializes the record, appending to `out` — same buffer-reuse
    /// contract as [`han_device::status::StatusRecord::encode_into`].
    /// Floats travel as their IEEE-754 bit patterns, so encode → decode
    /// is the identity even for NaN payloads.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.feeder.to_le_bytes());
        out.extend_from_slice(&self.homes.to_le_bytes());
        out.extend_from_slice(&self.devices.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.extend_from_slice(&self.deadline_misses.to_le_bytes());
        out.extend_from_slice(&self.windows_served.to_le_bytes());
        out.extend_from_slice(&self.divergent_rounds.to_le_bytes());
        for kwh in [
            self.energy_uncoordinated_kwh,
            self.energy_coordinated_kwh,
            self.sum_home_peaks_uncoordinated,
            self.sum_home_peaks_coordinated,
        ] {
            out.extend_from_slice(&kwh.to_bits().to_le_bytes());
        }
        for series in [&self.samples_uncoordinated, &self.samples_coordinated] {
            out.extend_from_slice(&(series.len() as u32).to_le_bytes());
            for &kw in series.iter() {
                out.extend_from_slice(&kw.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.home_digests.len() as u32).to_le_bytes());
        for d in &self.home_digests {
            out.extend_from_slice(&d.home.to_le_bytes());
            out.extend_from_slice(&d.uncoordinated.to_le_bytes());
            out.extend_from_slice(&d.coordinated.to_le_bytes());
        }
    }

    /// Serializes to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record from the front of `bytes`, returning it and
    /// the number of bytes consumed (records are self-delimiting, so a
    /// stream of them decodes by repeated calls).
    ///
    /// # Errors
    ///
    /// [`AggregateWireError`] on a missing magic or a short buffer.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), AggregateWireError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(MAGIC.len())? != MAGIC {
            return Err(AggregateWireError::BadMagic);
        }
        let feeder = c.u32()?;
        let homes = c.u32()?;
        let devices = c.u32()?;
        let rounds = c.u64()?;
        let deadline_misses = c.u64()?;
        let windows_served = c.u64()?;
        let divergent_rounds = c.u64()?;
        let energy_uncoordinated_kwh = c.f64()?;
        let energy_coordinated_kwh = c.f64()?;
        let sum_home_peaks_uncoordinated = c.f64()?;
        let sum_home_peaks_coordinated = c.f64()?;
        let series = |c: &mut Cursor<'_>| -> Result<Vec<f64>, AggregateWireError> {
            let len = c.u32()? as usize;
            let mut out = Vec::with_capacity(len.min(c.remaining() / 8));
            for _ in 0..len {
                out.push(c.f64()?);
            }
            Ok(out)
        };
        let samples_uncoordinated = series(&mut c)?;
        let samples_coordinated = series(&mut c)?;
        let digests = c.u32()? as usize;
        let mut home_digests = Vec::with_capacity(digests.min(c.remaining() / 24));
        for _ in 0..digests {
            home_digests.push(HomeDigest {
                home: c.u64()?,
                uncoordinated: c.u64()?,
                coordinated: c.u64()?,
            });
        }
        Ok((
            FeederAggregate {
                feeder,
                homes,
                devices,
                rounds,
                deadline_misses,
                windows_served,
                divergent_rounds,
                energy_uncoordinated_kwh,
                energy_coordinated_kwh,
                sum_home_peaks_uncoordinated,
                sum_home_peaks_coordinated,
                samples_uncoordinated,
                samples_coordinated,
                home_digests,
            },
            c.pos,
        ))
    }
}

/// Adds `series` into `into` elementwise, growing `into` as needed —
/// the single summation primitive every level of the tree uses (it is
/// exactly the fold [`crate::neighborhood::NeighborhoodReport`] applies
/// to home series, so feeder-of-homes and city-of-feeders sum the same
/// way).
pub(crate) fn sum_series(into: &mut Vec<f64>, series: &[f64]) {
    if series.len() > into.len() {
        into.resize(series.len(), 0.0);
    }
    for (sum, &kw) in into.iter_mut().zip(series) {
        *sum += kw;
    }
}

/// One inner node of the reduction tree: a group of feeders summed into
/// a substation (or substations into the city).
#[derive(Debug, Clone, PartialEq)]
pub struct SubstationSummary {
    /// Substation id (0-based, dense; feeder `f` reports to substation
    /// `f / substation_fanin`).
    pub substation: u32,
    /// First feeder id in this substation's group.
    pub first_feeder: u32,
    /// Feeders in this substation's group.
    pub feeders: u32,
    /// Summary of the substation's uncoordinated aggregate.
    pub uncoordinated: Summary,
    /// Summary of the substation's coordinated aggregate.
    pub coordinated: Summary,
    /// Substation coincidence factor, uncoordinated: substation peak
    /// over the sum of its feeder peaks (≤ 1).
    pub coincidence_uncoordinated: f64,
    /// Substation coincidence factor, coordinated.
    pub coincidence_coordinated: f64,
}

/// Peak-over-sum-of-peaks with the same zero-sum convention as
/// [`crate::neighborhood::NeighborhoodReport`].
pub(crate) fn coincidence(agg_peak: f64, member_peaks: impl Iterator<Item = f64>) -> f64 {
    let sum: f64 = member_peaks.sum();
    if sum == 0.0 {
        1.0
    } else {
        agg_peak / sum
    }
}

/// Reduces ordered feeder aggregates into substation summaries with
/// fan-in `fanin` (the last substation may be partial).
pub(crate) fn reduce_substations(
    feeders: &[FeederAggregate],
    fanin: usize,
) -> Vec<SubstationSummary> {
    feeders
        .chunks(fanin.max(1))
        .enumerate()
        .map(|(i, group)| {
            let mut unco = Vec::new();
            let mut coord = Vec::new();
            for f in group {
                sum_series(&mut unco, &f.samples_uncoordinated);
                sum_series(&mut coord, &f.samples_coordinated);
            }
            let uncoordinated = Summary::of(&unco);
            let coordinated = Summary::of(&coord);
            SubstationSummary {
                substation: i as u32,
                first_feeder: group[0].feeder,
                feeders: group.len() as u32,
                coincidence_uncoordinated: coincidence(
                    uncoordinated.peak,
                    group
                        .iter()
                        .map(|f| Summary::of(&f.samples_uncoordinated).peak),
                ),
                coincidence_coordinated: coincidence(
                    coordinated.peak,
                    group
                        .iter()
                        .map(|f| Summary::of(&f.samples_coordinated).peak),
                ),
                uncoordinated,
                coordinated,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aggregate(feeder: u32) -> FeederAggregate {
        FeederAggregate {
            feeder,
            homes: 3,
            devices: 78,
            rounds: 5400,
            deadline_misses: 1,
            windows_served: 41,
            divergent_rounds: 0,
            energy_uncoordinated_kwh: 12.5,
            energy_coordinated_kwh: 12.5,
            sum_home_peaks_uncoordinated: 9.25,
            sum_home_peaks_coordinated: 7.5,
            samples_uncoordinated: vec![0.0, 1.5, 3.25, 2.0],
            samples_coordinated: vec![0.5, 1.0, 2.75, 2.0],
            home_digests: vec![
                HomeDigest {
                    home: 7,
                    uncoordinated: 0,
                    coordinated: 0xDEAD_BEEF_CAFE_F00D,
                },
                HomeDigest {
                    home: 8,
                    uncoordinated: 0,
                    coordinated: 42,
                },
            ],
        }
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let agg = sample_aggregate(3);
        let bytes = agg.encode();
        let (back, consumed) = FeederAggregate::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, agg);
    }

    #[test]
    fn records_are_self_delimiting_in_a_stream() {
        let mut stream = Vec::new();
        sample_aggregate(0).encode_into(&mut stream);
        sample_aggregate(1).encode_into(&mut stream);
        let (first, n) = FeederAggregate::decode(&stream).unwrap();
        let (second, m) = FeederAggregate::decode(&stream[n..]).unwrap();
        assert_eq!(n + m, stream.len());
        assert_eq!(first.feeder, 0);
        assert_eq!(second.feeder, 1);
    }

    #[test]
    fn decode_errors_are_typed() {
        assert_eq!(
            FeederAggregate::decode(b"NOTMAGIC________"),
            Err(AggregateWireError::BadMagic)
        );
        let bytes = sample_aggregate(0).encode();
        let truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            FeederAggregate::decode(truncated),
            Err(AggregateWireError::Truncated { .. })
        ));
    }

    #[test]
    fn substation_reduction_sums_feeders() {
        let feeders = vec![
            sample_aggregate(0),
            sample_aggregate(1),
            sample_aggregate(2),
        ];
        let subs = reduce_substations(&feeders, 2);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].feeders, 2);
        assert_eq!(subs[1].feeders, 1);
        assert_eq!(subs[0].first_feeder, 0);
        assert_eq!(subs[1].first_feeder, 2);
        // Two identical feeders: substation peak == 2 × feeder peak, so
        // the group's coincidence factor is exactly 1.
        assert!((subs[0].uncoordinated.peak - 6.5).abs() < 1e-12);
        assert!((subs[0].coincidence_uncoordinated - 1.0).abs() < 1e-12);
    }
}
