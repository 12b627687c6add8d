//! Differential test of the allocation-free Glossy flood kernel.
//!
//! The oracle below is the original per-listener flood body, kept
//! verbatim: every listener builds a `Vec<IncomingSignal>` and hands it
//! to [`resolve_slot`]. The kernel must match it exactly — the same
//! [`FloodOutcome`] and the same RNG state after every flood — because
//! every schedule digest and checkpoint byte downstream depends on the
//! RNG draw sequence and on every `f64` of the reception model.

use han_net::{flocklab, generators, NodeId};
use han_radio::capture::{resolve_slot, IncomingSignal, SlotOutcome};
use han_radio::channel::ChannelModel;
use han_radio::units::Dbm;
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;
use han_st::glossy::{self, FloodOutcome};
use han_st::item::{Item, ItemStore};
use han_st::minicast::{self, RoundScratch};
use han_st::StConfig;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 96 };

const DESYNC: [f64; 4] = [0.0, 0.001, 0.3, 1.0];
const JITTER_NS: [u64; 3] = [0, 200, 2000];

/// The reference `draw_offset`, verbatim.
fn oracle_draw_offset(cfg: &StConfig, rng: &mut DetRng) -> SimDuration {
    if rng.gen_bool(cfg.desync_probability) {
        SimDuration::from_micros(rng.gen_range_u64(45) + 5)
    } else {
        let jitter_ns = rng.gen_normal(0.0, cfg.tx_jitter_ns as f64).abs();
        SimDuration::from_micros((jitter_ns / 1000.0).round() as u64)
    }
}

/// The reference flood body, verbatim.
fn oracle_flood(
    rssi: &[Vec<Dbm>],
    initiator: NodeId,
    content_id: u64,
    frame_bytes: usize,
    cfg: &StConfig,
    rng: &mut DetRng,
) -> FloodOutcome {
    let n = rssi.len();
    let mut received = vec![false; n];
    let mut first_rx_slot = vec![None; n];
    let mut tx_count = vec![0u32; n];
    let mut listen_slots = vec![0u32; n];
    let mut tx_at: Vec<Option<usize>> = vec![None; n];

    received[initiator.index()] = true;
    tx_at[initiator.index()] = Some(0);

    for slot in 0..cfg.flood_slots {
        let transmitters: Vec<usize> = (0..n)
            .filter(|&i| tx_at[i] == Some(slot) && tx_count[i] < u32::from(cfg.n_tx))
            .collect();
        let offsets: Vec<SimDuration> = transmitters
            .iter()
            .map(|_| oracle_draw_offset(cfg, rng))
            .collect();

        let mut newly_received: Vec<usize> = Vec::new();
        for listener in 0..n {
            if transmitters.contains(&listener) {
                continue;
            }
            listen_slots[listener] += 1;
            if transmitters.is_empty() {
                continue;
            }
            let signals: Vec<IncomingSignal> = transmitters
                .iter()
                .zip(&offsets)
                .map(|(&tx, &offset)| IncomingSignal {
                    tx_index: tx,
                    rssi: rssi[tx][listener],
                    offset,
                    content_id,
                })
                .collect();
            if let SlotOutcome::Received { .. } =
                resolve_slot(&signals, &cfg.capture, frame_bytes, rng)
            {
                if !received[listener] {
                    received[listener] = true;
                    first_rx_slot[listener] = Some(slot);
                }
                newly_received.push(listener);
            }
        }

        for &tx in &transmitters {
            tx_count[tx] += 1;
            tx_at[tx] = if tx == initiator.index() && tx_count[tx] < u32::from(cfg.n_tx) {
                Some(slot + 2)
            } else {
                None
            };
        }
        for &node in &newly_received {
            if tx_count[node] < u32::from(cfg.n_tx) {
                tx_at[node] = Some(slot + 1);
            }
        }
    }

    FloodOutcome {
        received,
        first_rx_slot,
        tx_count,
        listen_slots,
        slots_used: cfg.flood_slots,
    }
}

/// A topology of kind `kind % 4`: a random line, a random grid, a
/// shadowed testbed realization, or the deterministic testbed. Lines
/// and grids alternate between a unit disk (equal RSSI everywhere, so
/// strongest-signal ties) and a shadowed indoor channel.
fn topology(kind: usize, size: usize, spacing: f64, seed: u64) -> Vec<Vec<Dbm>> {
    let channel = if seed.is_multiple_of(2) {
        ChannelModel::UnitDisk {
            range_m: spacing * 2.5,
        }
    } else {
        ChannelModel::indoor_office(seed)
    };
    match kind % 4 {
        0 => generators::line(size, spacing, channel),
        1 => generators::grid(size.div_ceil(3).max(2), 3, spacing, channel),
        2 => flocklab::flocklab26(seed),
        _ => flocklab::flocklab26_deterministic(),
    }
    .rssi_matrix()
}

fn config(desync: usize, jitter: usize) -> StConfig {
    StConfig {
        desync_probability: DESYNC[desync],
        tx_jitter_ns: JITTER_NS[jitter],
        ..StConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn kernel_matches_the_reference_flood(
        kind in 0usize..4,
        size in 2usize..14,
        spacing in 4.0f64..30.0,
        desync in 0usize..4,
        jitter in 0usize..3,
        seed in any::<u64>()
    ) {
        let rssi = topology(kind, size, spacing, seed);
        let n = rssi.len();
        let cfg = config(desync, jitter);
        let mut pick = DetRng::for_stream(seed, "prop-flood-kernel/inputs");
        let mut oracle_rng = DetRng::new(seed);
        let mut kernel_rng = DetRng::new(seed);
        let mut scratch = glossy::FloodScratch::default();
        for flood in 0..6u64 {
            let initiator = NodeId(pick.gen_index(n) as u32);
            let frame = 20 + pick.gen_index(108);
            let want = oracle_flood(&rssi, initiator, flood, frame, &cfg, &mut oracle_rng);
            let got = glossy::flood_with(
                &rssi, initiator, flood, frame, &cfg, &mut kernel_rng, &mut scratch,
            );
            prop_assert_eq!(got, &want, "flood {} from {:?}, {} B", flood, initiator, frame);
            prop_assert_eq!(kernel_rng.state(), oracle_rng.state());
            // The scratch-free entry point is the same kernel.
            let mut fresh_rng = DetRng::from_state(kernel_rng.state());
            let mut oracle_again = DetRng::from_state(kernel_rng.state());
            let fresh = glossy::flood(&rssi, initiator, flood, frame, &cfg, &mut fresh_rng);
            let again = oracle_flood(&rssi, initiator, flood, frame, &cfg, &mut oracle_again);
            prop_assert_eq!(fresh, again);
            prop_assert_eq!(fresh_rng.state(), oracle_again.state());
        }
    }
}

#[test]
fn reused_round_scratch_never_serves_a_stale_link() {
    // One RoundScratch alternates between two RSSI matrices and two
    // frame sizes (payloads of different length): every round must
    // equal the one a fresh scratch produces, and every flood must match
    // the oracle, so no cached reception probability leaks across.
    let a = flocklab::flocklab26(3).rssi_matrix();
    let b = flocklab::flocklab26(11).rssi_matrix();
    let cfg = StConfig {
        desync_probability: 0.3,
        ..StConfig::default()
    };
    let mut reused = RoundScratch::default();
    let mut reused_rng = DetRng::new(5);
    let mut fresh_rng = DetRng::new(5);
    let mut stores_reused = vec![ItemStore::new(); 26];
    let mut stores_fresh = vec![ItemStore::new(); 26];
    for round in 0..8u64 {
        let rssi = if round % 2 == 0 { &a } else { &b };
        // Even rounds carry 4-byte payloads, odd rounds 12-byte ones.
        let seq = round as u32 + 1;
        for stores in [&mut stores_reused, &mut stores_fresh] {
            for (i, store) in stores.iter_mut().enumerate() {
                let len = if round % 2 == 0 { 4 } else { 12 };
                store.merge(&Item::new(NodeId(i as u32), seq, vec![i as u8; len]));
            }
        }
        let got = minicast::run_round_with(
            rssi,
            &mut stores_reused,
            NodeId(0),
            &cfg,
            round,
            &mut reused_rng,
            &mut reused,
        );
        let want = minicast::run_round(
            rssi,
            &mut stores_fresh,
            NodeId(0),
            &cfg,
            round,
            &mut fresh_rng,
        );
        assert_eq!(got.coverage, want.coverage, "round {round}");
        assert_eq!(got.tx_count, want.tx_count, "round {round}");
        assert_eq!(got.listen_slots, want.listen_slots, "round {round}");
        assert_eq!(got.synced, want.synced, "round {round}");
        assert_eq!(reused_rng.state(), fresh_rng.state(), "round {round}");
    }

    // And flood by flood against the oracle, one kernel scratch across
    // both matrices and both frame sizes.
    let mut scratch = glossy::FloodScratch::default();
    let mut oracle_rng = DetRng::new(9);
    let mut kernel_rng = DetRng::new(9);
    for flood in 0..40u64 {
        let rssi = if flood % 2 == 0 { &a } else { &b };
        let frame = if flood % 4 < 2 { 31 } else { 127 };
        let initiator = NodeId((flood % 26) as u32);
        let want = oracle_flood(rssi, initiator, flood, frame, &cfg, &mut oracle_rng);
        let got = glossy::flood_with(
            rssi,
            initiator,
            flood,
            frame,
            &cfg,
            &mut kernel_rng,
            &mut scratch,
        );
        assert_eq!(got, &want, "flood {flood}");
        assert_eq!(kernel_rng.state(), oracle_rng.state(), "flood {flood}");
    }
}
