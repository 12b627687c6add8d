//! Glossy-style synchronous flooding.
//!
//! Glossy (Ferrari et al., IPSN 2011) floods one frame through a multi-hop
//! network in a handful of slots: the initiator transmits, every receiver
//! retransmits the *identical* frame in the next slot, and concurrent
//! retransmissions survive thanks to constructive interference and the
//! capture effect. Each node transmits at most `n_tx` times.
//!
//! [`flood`] executes one flood slot-by-slot against a precomputed RSSI
//! matrix and returns who received the frame, when, and at what radio cost.
//! It is the primitive under both the sync beacon and every MiniCast data
//! phase; [`flood_with`] is the same kernel on a reusable
//! [`FloodScratch`], which MiniCast keeps from round to round.

use crate::config::StConfig;
use han_net::NodeId;
use han_radio::capture::{resolve_slot, IncomingSignal, SlotOutcome};
use han_radio::units::Dbm;
use han_radio::{phy, prr};
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;

/// Result of one flood.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloodOutcome {
    /// Whether each node holds the frame after the flood (initiator: true).
    pub received: Vec<bool>,
    /// Slot index of first reception per node (`None` for the initiator and
    /// for nodes that never received).
    pub first_rx_slot: Vec<Option<usize>>,
    /// Number of transmissions each node made.
    pub tx_count: Vec<u32>,
    /// Number of slots each node spent listening.
    pub listen_slots: Vec<u32>,
    /// Slots actually elapsed (the configured flood length).
    pub slots_used: usize,
}

impl FloodOutcome {
    /// Fraction of nodes (including the initiator) holding the frame.
    pub fn coverage(&self) -> f64 {
        let n = self.received.len();
        if n == 0 {
            return 0.0;
        }
        self.received.iter().filter(|&&r| r).count() as f64 / n as f64
    }

    /// Whether every node received the frame.
    pub fn is_complete(&self) -> bool {
        self.received.iter().all(|&r| r)
    }
}

/// Reusable working memory for [`flood_with`].
///
/// Holds the flood's outcome and per-slot buffers (so a flood allocates
/// nothing once the scratch has grown to the network size, outside the
/// rare capture/collision slot that [`resolve_slot`] decides) plus a lazily
/// filled per-link cache of the constructive-interference reception
/// probability. A cache entry is a memo of [`prr::link_ber`] keyed by the
/// bits of the effective signal level and of [`prr::prr_from_ber`] keyed
/// by the frame size, so a scratch reused with another RSSI matrix, gain
/// or frame size recomputes instead of serving a stale value.
#[derive(Debug, Default, Clone)]
pub struct FloodScratch {
    /// The last flood's outcome.
    pub(crate) outcome: FloodOutcome,
    /// Slot in which each node will next transmit, if any.
    tx_at: Vec<Option<usize>>,
    transmitters: Vec<usize>,
    offsets: Vec<SimDuration>,
    newly_received: Vec<usize>,
    /// Per listener: the strongest audible level this slot, and its
    /// transmitter ([`NO_TX`] if nothing is audible).
    best_level: Vec<f64>,
    best_tx: Vec<usize>,
    /// Input of [`resolve_slot`] in the rare capture/collision case.
    signals: Vec<IncomingSignal>,
    /// `links[tx * n + listener]`: the link's last CI reception memo.
    links: Vec<Option<LinkPrr>>,
}

/// `FloodScratch::best_tx` of a listener that hears no transmitter.
const NO_TX: usize = usize::MAX;

/// Memoized constructive-interference reception model of one link.
#[derive(Debug, Clone, Copy)]
struct LinkPrr {
    signal_bits: u64,
    ber: f64,
    frame_bytes: usize,
    prr: f64,
}

impl FloodScratch {
    fn reset(&mut self, n: usize, slots: usize) {
        let out = &mut self.outcome;
        out.received.clear();
        out.received.resize(n, false);
        out.first_rx_slot.clear();
        out.first_rx_slot.resize(n, None);
        out.tx_count.clear();
        out.tx_count.resize(n, 0);
        out.listen_slots.clear();
        out.listen_slots.resize(n, 0);
        out.slots_used = slots;
        self.tx_at.clear();
        self.tx_at.resize(n, None);
        if self.links.len() < n * n {
            self.links.resize(n * n, None);
        }
    }
}

/// PRR of a constructively interfering slot whose strongest signal is
/// `signal` (gain included), against the noise floor: bit for bit
/// [`prr::packet_reception_rate`]`(signal, NOISE_FLOOR, frame_bytes)` for
/// any non-empty frame, computed at most once per link, signal level and
/// frame size.
fn ci_prr(entry: &mut Option<LinkPrr>, signal: Dbm, frame_bytes: usize) -> f64 {
    let signal_bits = signal.0.to_bits();
    match entry {
        Some(link) if link.signal_bits == signal_bits => {
            if link.frame_bytes != frame_bytes {
                link.frame_bytes = frame_bytes;
                link.prr = prr::prr_from_ber(link.ber, frame_bytes);
            }
            link.prr
        }
        _ => {
            let ber = prr::link_ber(signal, phy::NOISE_FLOOR);
            let prr = prr::prr_from_ber(ber, frame_bytes);
            *entry = Some(LinkPrr {
                signal_bits,
                ber,
                frame_bytes,
                prr,
            });
            prr
        }
    }
}

/// Start-time spread of the transmissions `listener` can hear (at least
/// one must be audible).
fn audible_spread(
    rssi: &[Vec<Dbm>],
    transmitters: &[usize],
    offsets: &[SimDuration],
    listener: usize,
) -> SimDuration {
    let (lo, hi) = transmitters
        .iter()
        .zip(offsets)
        .filter(|(&tx, _)| rssi[tx][listener] >= phy::SENSITIVITY)
        .fold(
            (SimDuration::MAX, SimDuration::ZERO),
            |(lo, hi), (_, &o)| (lo.min(o), hi.max(o)),
        );
    hi - lo
}

/// Draws a transmit-timing offset for one transmitter in one slot.
fn draw_offset(cfg: &StConfig, rng: &mut DetRng) -> SimDuration {
    if rng.gen_bool(cfg.desync_probability) {
        // A late timer interrupt: several to tens of microseconds off,
        // outside the constructive-interference window.
        SimDuration::from_micros(rng.gen_range_u64(45) + 5)
    } else {
        // Offsets round to whole microseconds, so a jitter that is
        // certainly under 500 ns needs no exact value: it is 0 µs.
        match rng.gen_abs_normal_unless_below(cfg.tx_jitter_ns as f64, 500.0) {
            None => SimDuration::ZERO,
            Some(jitter_ns) => SimDuration::from_micros((jitter_ns / 1000.0).round() as u64),
        }
    }
}

/// Executes one synchronous flood of an identical frame from `initiator`.
///
/// `rssi` is the `matrix[from][to]` link-budget table from
/// [`han_net::Topology::rssi_matrix`]; `content_id` identifies the frame
/// content for the capture model; `frame_bytes` is the on-air frame size.
///
/// # Panics
///
/// Panics if `initiator` is out of range or `rssi` is not square.
pub fn flood(
    rssi: &[Vec<Dbm>],
    initiator: NodeId,
    content_id: u64,
    frame_bytes: usize,
    cfg: &StConfig,
    rng: &mut DetRng,
) -> FloodOutcome {
    let mut scratch = FloodScratch::default();
    flood_with(
        rssi,
        initiator,
        content_id,
        frame_bytes,
        cfg,
        rng,
        &mut scratch,
    );
    scratch.outcome
}

/// [`flood`] with caller-owned [`FloodScratch`]: the outcome lives in the
/// scratch until the next flood, and per-link reception probabilities
/// computed by one flood serve every later flood on the same links.
///
/// Every listener in every slot is resolved exactly as
/// [`resolve_slot`] resolves the signals of all transmitters, with the
/// same RNG draws: the strongest audible transmitter (lowest index on a
/// tie) wins, and when all audible offsets lie within the
/// constructive-interference window its reception is one Bernoulli draw
/// on the cached PRR. Only the rare capture/collision case builds the
/// signal list and calls [`resolve_slot`] itself.
///
/// # Panics
///
/// Panics if `initiator` is out of range or `rssi` is not square.
#[allow(clippy::too_many_arguments)]
pub fn flood_with<'s>(
    rssi: &[Vec<Dbm>],
    initiator: NodeId,
    content_id: u64,
    frame_bytes: usize,
    cfg: &StConfig,
    rng: &mut DetRng,
    scratch: &'s mut FloodScratch,
) -> &'s FloodOutcome {
    let n = rssi.len();
    assert!(initiator.index() < n, "initiator out of range");
    assert!(
        rssi.iter().all(|row| row.len() == n),
        "rssi matrix not square"
    );
    scratch.reset(n, cfg.flood_slots);
    let FloodScratch {
        outcome: out,
        tx_at,
        transmitters,
        offsets,
        newly_received,
        best_level,
        best_tx,
        signals,
        links,
    } = scratch;
    let n_tx = u32::from(cfg.n_tx);
    let ci_window = cfg.capture.ci_window;

    out.received[initiator.index()] = true;
    tx_at[initiator.index()] = Some(0);

    for slot in 0..cfg.flood_slots {
        transmitters.clear();
        transmitters.extend((0..n).filter(|&i| tx_at[i] == Some(slot) && out.tx_count[i] < n_tx));

        // Offsets are drawn once per transmitter per slot, shared by all
        // receivers (the transmitter is early or late for everyone).
        offsets.clear();
        offsets.extend(transmitters.iter().map(|_| draw_offset(cfg, rng)));
        // If all transmitters fit the CI window, so does every listener's
        // audible subset; otherwise each listener checks its own.
        let all_in_window = match (offsets.iter().min(), offsets.iter().max()) {
            (Some(&lo), Some(&hi)) => hi - lo <= ci_window,
            _ => true,
        };

        // Strongest audible transmitter per listener, scanning the
        // transmitters' contiguous RSSI rows in ascending index order:
        // only a strictly stronger signal replaces the best, so the lowest
        // index wins a tie, as in `resolve_slot`. Starting just below the
        // sensitivity makes `>` the audibility test too.
        best_level.clear();
        best_level.resize(n, phy::SENSITIVITY.0.next_down());
        best_tx.clear();
        best_tx.resize(n, NO_TX);
        for &tx in transmitters.iter() {
            let row = rssi[tx].iter().zip(best_level.iter_mut());
            for ((level, best), who) in row.zip(best_tx.iter_mut()) {
                if level.0 > *best {
                    *best = level.0;
                    *who = tx;
                }
            }
        }

        newly_received.clear();
        let mut next_tx = transmitters.iter().copied().peekable();
        for listener in 0..n {
            if next_tx.next_if_eq(&listener).is_some() {
                continue;
            }
            out.listen_slots[listener] += 1;
            let tx = best_tx[listener];
            if tx == NO_TX {
                continue;
            }
            let in_window =
                all_in_window || audible_spread(rssi, transmitters, offsets, listener) <= ci_window;
            let received =
                if in_window {
                    let signal = Dbm(best_level[listener]) + cfg.capture.ci_gain_db;
                    rng.gen_bool(ci_prr(&mut links[tx * n + listener], signal, frame_bytes))
                } else {
                    signals.clear();
                    signals.extend(transmitters.iter().zip(offsets.iter()).map(
                        |(&tx, &offset)| IncomingSignal {
                            tx_index: tx,
                            rssi: rssi[tx][listener],
                            offset,
                            content_id,
                        },
                    ));
                    matches!(
                        resolve_slot(signals, &cfg.capture, frame_bytes, rng),
                        SlotOutcome::Received { .. }
                    )
                };
            if received {
                if !out.received[listener] {
                    out.received[listener] = true;
                    out.first_rx_slot[listener] = Some(slot);
                }
                newly_received.push(listener);
            }
        }

        // Post-slot bookkeeping: transmitters consumed a transmission and,
        // per Glossy, the initiator re-arms two slots later while relays
        // re-arm on every reception.
        for &tx in transmitters.iter() {
            out.tx_count[tx] += 1;
            tx_at[tx] = if tx == initiator.index() && out.tx_count[tx] < n_tx {
                Some(slot + 2)
            } else {
                None
            };
        }
        for &node in newly_received.iter() {
            if out.tx_count[node] < n_tx {
                tx_at[node] = Some(slot + 1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_net::generators;
    use han_radio::channel::ChannelModel;

    fn disk(range: f64) -> ChannelModel {
        ChannelModel::UnitDisk { range_m: range }
    }

    fn cfg() -> StConfig {
        StConfig::default()
    }

    #[test]
    fn flood_covers_connected_line() {
        let topo = generators::line(5, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        let out = flood(&rssi, NodeId(0), 42, 60, &cfg(), &mut rng);
        assert!(out.is_complete(), "flood failed: {:?}", out.received);
        // Hop latency: node k first receives in slot >= k-1.
        assert_eq!(out.first_rx_slot[1], Some(0));
        assert!(out.first_rx_slot[4].unwrap() >= 3);
    }

    #[test]
    fn flood_respects_partition() {
        let topo = generators::line(4, 30.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        let out = flood(&rssi, NodeId(0), 42, 60, &cfg(), &mut rng);
        assert!(out.received[0]);
        assert!(!out.received[1] && !out.received[2] && !out.received[3]);
        assert!((out.coverage() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tx_budget_respected() {
        let topo = generators::grid(4, 4, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(2);
        let c = cfg();
        let out = flood(&rssi, NodeId(5), 7, 60, &c, &mut rng);
        for (i, &t) in out.tx_count.iter().enumerate() {
            assert!(t <= u32::from(c.n_tx), "node {i} transmitted {t} times");
        }
        assert!(out.is_complete());
    }

    #[test]
    fn initiator_never_counts_as_receiver_slot() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(3);
        let out = flood(&rssi, NodeId(1), 9, 60, &cfg(), &mut rng);
        assert_eq!(out.first_rx_slot[1], None);
        assert!(out.received[1]);
    }

    #[test]
    fn flood_reliable_across_seeds_on_flocklab() {
        let topo = han_net::flocklab::flocklab26_deterministic();
        let rssi = topo.rssi_matrix();
        let c = cfg();
        let mut complete = 0;
        for seed in 0..50 {
            let mut rng = DetRng::new(seed);
            let out = flood(&rssi, NodeId(0), seed, 60, &c, &mut rng);
            if out.is_complete() {
                complete += 1;
            }
        }
        assert!(
            complete >= 45,
            "flood should almost always cover the testbed, got {complete}/50"
        );
    }

    #[test]
    fn heavy_desync_degrades_but_capture_saves_some() {
        let topo = generators::grid(3, 3, 10.0, disk(25.0));
        let rssi = topo.rssi_matrix();
        let noisy = StConfig {
            desync_probability: 1.0,
            ..cfg()
        };
        let mut covered = 0.0;
        for seed in 0..20 {
            let mut rng = DetRng::new(seed);
            covered += flood(&rssi, NodeId(0), 1, 60, &noisy, &mut rng).coverage();
        }
        let mean = covered / 20.0;
        // Desynchronized relays collide constantly, but single-transmitter
        // slots and capture still move the frame: partial coverage.
        assert!(mean > 0.2 && mean < 1.0, "mean coverage {mean}");
    }

    #[test]
    fn listen_accounting_sane() {
        let topo = generators::line(3, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(5);
        let c = cfg();
        let out = flood(&rssi, NodeId(0), 1, 60, &c, &mut rng);
        for i in 0..3 {
            assert_eq!(
                u32::try_from(out.slots_used).unwrap(),
                out.listen_slots[i] + out.tx_count[i],
                "node {i} slots must split between listen and tx"
            );
        }
    }

    #[test]
    #[should_panic(expected = "initiator out of range")]
    fn bad_initiator_panics() {
        let topo = generators::line(2, 10.0, disk(15.0));
        let rssi = topo.rssi_matrix();
        let mut rng = DetRng::new(1);
        flood(&rssi, NodeId(5), 1, 60, &cfg(), &mut rng);
    }
}
