//! The data-cache timing model, end to end.
//!
//! Three properties pin it down:
//!
//! 1. **Calibration**: the default `DCacheConfig::Perfect` reproduces the
//!    calibrated per-loop cycle counts of the perfect-memory machine
//!    bit-for-bit — adding the cache layer must not move a single number.
//! 2. **Timing-only**: under *any* cache geometry, every mechanism still
//!    produces exactly the golden interpreter's registers and memory; a
//!    cache can reorder and delay, never corrupt.
//! 3. **It does something**: a finite cache with a hit latency equal to
//!    the perfect latency can only add cycles, and does add them; and the
//!    dynamic mechanisms absorb a growing miss latency better than the
//!    in-order baselines (the paper's motivating claim, extended to a
//!    real memory path).

use ruu::exec::ArchState;
use ruu::isa::FuClass;
use ruu::issue::{Bypass, Mechanism, PreciseScheme};
use ruu::predict::PredictorConfig;
use ruu::sim::{
    CycleAccountant, DCache, DCacheConfig, LoadRegUnit, LrOutcome, MachineConfig, MemOpKind,
    StallReason,
};
use ruu::workloads::livermore;

/// Per-loop cycle counts of the perfect-memory machine over
/// `livermore::all()` (LLL1..LLL14), captured from the seed tree before
/// the cache model existed (the Tag Unit and RS-pool rows were captured
/// later, before the tagged mechanisms moved onto the RUU core).
/// `DCacheConfig::Perfect` must reproduce these exactly.
fn calibrated() -> Vec<(Mechanism, [u64; 14])> {
    vec![
        (
            Mechanism::Simple,
            [
                19614, 19913, 35051, 16307, 30854, 33774, 18610, 20018, 19399, 15347, 35094, 36408,
                32769, 31169,
            ],
        ),
        (
            Mechanism::Tomasulo { rs_per_fu: 2 },
            [
                9628, 10051, 18536, 6669, 13947, 14268, 9326, 9341, 9947, 10147, 16902, 15615,
                18495, 18249,
            ],
        ),
        (
            Mechanism::TagUnitDistributed {
                rs_per_fu: 2,
                tags: 12,
            },
            [
                9628, 10051, 18536, 6669, 13947, 14268, 9326, 9341, 9947, 10147, 16902, 15615,
                18495, 18249,
            ],
        ),
        (
            Mechanism::RsPool { rs: 8, tags: 12 },
            [
                8628, 10079, 15036, 6682, 15933, 14317, 7378, 7810, 7244, 10415, 14306, 15615,
                16257, 15977,
            ],
        ),
        (
            Mechanism::Rstu { entries: 15 },
            [
                7433, 10088, 15036, 6682, 14449, 14317, 6381, 7236, 6944, 9509, 14306, 15615,
                16257, 15598,
            ],
        ),
        (
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::Full,
            },
            [
                10222, 12025, 16040, 6981, 13954, 14873, 8869, 8781, 8440, 9640, 14307, 15617,
                16539, 15600,
            ],
        ),
        (
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::None,
            },
            [
                17219, 17085, 28041, 16273, 26871, 33337, 12466, 10954, 14139, 11575, 27295, 27308,
                20166, 20906,
            ],
        ),
        (
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBufferBypass,
                entries: 15,
            },
            [
                19617, 19915, 35051, 16311, 30855, 33777, 18611, 20019, 19400, 15348, 35095, 36410,
                32770, 31170,
            ],
        ),
        (
            Mechanism::SpecRuu {
                entries: 15,
                bypass: Bypass::Full,
                predictor: PredictorConfig::default(),
            },
            [
                10222, 11966, 16040, 6973, 13954, 14613, 8869, 8781, 8440, 9640, 14307, 15617,
                16539, 15600,
            ],
        ),
    ]
}

/// Every simulator family, for the differential (architectural) checks.
fn all_mechanisms() -> Vec<Mechanism> {
    let mut v: Vec<Mechanism> = calibrated().into_iter().map(|(m, _)| m).collect();
    v.push(Mechanism::InOrderPrecise {
        scheme: PreciseScheme::FutureFile,
        entries: 15,
    });
    v
}

fn dcache(spec: &str) -> DCacheConfig {
    DCacheConfig::parse(spec).expect("test geometry is valid")
}

#[test]
fn perfect_default_reproduces_the_calibrated_cycle_snapshot() {
    let cfg = MachineConfig::paper();
    assert!(cfg.dcache.is_perfect(), "paper() must default to Perfect");
    let loops = livermore::all();
    for (m, want) in calibrated() {
        for (w, &cycles) in loops.iter().zip(want.iter()) {
            let r = m
                .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            assert_eq!(
                r.cycles, cycles,
                "{m} on {}: perfect-memory cycle count drifted from the seed calibration",
                w.name
            );
            assert_eq!(r.stats.dcache_accesses, 0, "{m} on {}", w.name);
        }
    }
}

#[test]
fn every_mechanism_matches_golden_under_any_dcache() {
    // Small and thrashy, tiny MSHR pool, and a comfortable cache: the
    // architectural result must not notice any of them.
    let geometries = ["16x1x2:25:3:1", "16x2x4:20", "256x4x8:40:2:8"];
    for spec in geometries {
        let cfg = MachineConfig::paper().with_dcache(dcache(spec));
        for w in livermore::all() {
            let golden = w.golden_trace().expect("golden run succeeds");
            for m in all_mechanisms() {
                let r = m
                    .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                    .unwrap_or_else(|e| panic!("{m} under {spec} failed on {}: {e}", w.name));
                assert_eq!(
                    &r.state.regs,
                    &golden.final_state().regs,
                    "{m} under {spec} on {}: registers",
                    w.name
                );
                assert_eq!(
                    &r.memory,
                    golden.final_memory(),
                    "{m} under {spec} on {}: memory",
                    w.name
                );
                w.verify(&r.memory)
                    .unwrap_or_else(|e| panic!("{m} under {spec} on {}: mirror: {e}", w.name));
                assert!(
                    r.stats.dcache_accesses > 0,
                    "{m} under {spec} on {}: loads must consult the cache",
                    w.name
                );
                assert_eq!(
                    r.stats.dcache_hits + r.stats.dcache_misses,
                    r.stats.dcache_accesses,
                    "{m} under {spec} on {}: hit/miss accounting",
                    w.name
                );
            }
        }
    }
}

#[test]
fn a_finite_cache_only_adds_cycles_and_does_add_them() {
    // Hit latency pinned to the perfect memory latency: every access is
    // at least as slow as under perfect memory, so cycle counts can only
    // grow — and with a thrashy geometry they must grow somewhere.
    let perfect_lat = MachineConfig::paper().fu_latency(FuClass::Memory);
    let spec = format!("16x1x2:40:{perfect_lat}:2");
    let cfg = MachineConfig::paper().with_dcache(dcache(&spec));
    let loops = livermore::all();
    for (m, perfect) in calibrated() {
        let mut strictly_slower = 0usize;
        for (w, &base) in loops.iter().zip(perfect.iter()) {
            let r = m
                .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            assert!(
                r.cycles >= base,
                "{m} on {}: finite cache ({} cycles) beat perfect memory ({base})",
                w.name,
                r.cycles
            );
            if r.cycles > base {
                strictly_slower += 1;
            }
        }
        assert!(
            strictly_slower > 0,
            "{m}: a thrashy finite cache never cost a single cycle on any loop"
        );
    }
}

#[test]
fn dynamic_mechanisms_absorb_miss_latency_better_than_in_order_baselines() {
    // The ablation claim: as miss latency grows, the out-of-order windows
    // (RUU, speculative RUU) degrade less than the Thornton-style
    // in-order machines, because independent work proceeds under a miss.
    let total = |m: &Mechanism, dc: &DCacheConfig| -> u64 {
        let cfg = MachineConfig::paper().with_dcache(*dc);
        livermore::all()
            .iter()
            .map(|w| {
                m.run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                    .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name))
                    .cycles
            })
            .sum()
    };
    let slowdown = |m: &Mechanism| -> f64 {
        let near = total(m, &dcache("64x2x4:5:1:4"));
        let far = total(m, &dcache("64x2x4:60:1:4"));
        far as f64 / near as f64
    };
    let simple = slowdown(&Mechanism::Simple);
    let ruu = slowdown(&Mechanism::Ruu {
        entries: 15,
        bypass: Bypass::Full,
    });
    let spec = slowdown(&Mechanism::SpecRuu {
        entries: 15,
        bypass: Bypass::Full,
        predictor: PredictorConfig::default(),
    });
    assert!(
        ruu < simple,
        "RUU slowdown {ruu:.3} should beat the simple machine's {simple:.3}"
    );
    assert!(
        spec < simple,
        "spec-RUU slowdown {spec:.3} should beat the simple machine's {simple:.3}"
    );
}

#[test]
fn cycle_accounting_holds_with_mem_stall_under_a_finite_cache() {
    // The accounting identity (cycles == issue + Σ stalls) must survive
    // the new MemStall reason, and the single-MSHR geometry must actually
    // exercise it on the blocking in-order machines.
    let cfg = MachineConfig::paper().with_dcache(dcache("16x1x2:30:1:1"));
    let mut mem_stalls = 0u64;
    for w in livermore::all() {
        for m in all_mechanisms() {
            let sim = m.build(&cfg);
            let mut acct = CycleAccountant::default();
            let r = sim
                .run_observed(
                    ArchState::new(),
                    w.memory.clone(),
                    &w.program,
                    w.inst_limit,
                    &mut acct,
                )
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            acct.verify(r.cycles)
                .unwrap_or_else(|v| panic!("{m} on {}: {v}", w.name));
            if matches!(m, Mechanism::Simple | Mechanism::InOrderPrecise { .. }) {
                mem_stalls += r.stats.stalls(StallReason::MemStall);
            } else {
                assert_eq!(
                    r.stats.stalls(StallReason::MemStall),
                    0,
                    "{m} on {}: out-of-order machines retry dispatch, not decode",
                    w.name
                );
            }
        }
    }
    assert!(
        mem_stalls > 0,
        "a single-MSHR cache never blocked the in-order decode stage"
    );
}

#[test]
fn aliased_addresses_share_cache_set_way_and_load_register_entry() {
    // Satellite of the canonicalization audit: an address and its wrap
    // `addr + mem_words` must be one location to the cache *and* to the
    // load registers, exactly as they are to `Memory`.
    let words = 1u64 << 16;
    let mem = ruu::exec::Memory::new(words as usize);
    let mut dc = DCache::new(&dcache("64x4x4:20"), 11, words);
    let addr = 12_345u64;
    let alias = addr + words;
    assert_eq!(mem.canonicalize(addr), mem.canonicalize(alias));
    assert_eq!(dc.set_of(addr), dc.set_of(alias));
    dc.access(addr, 0); // fill the line
    assert_eq!(dc.way_of(addr), dc.way_of(alias));
    assert!(
        dc.way_of(alias).is_some(),
        "alias resolves to the filled way"
    );
    assert!(dc.plan(alias, 50).is_hit(), "alias hits the filled line");

    // Every simulator canonicalizes before consulting the load registers
    // (see the `canonicalize` call sites in `crates/issue`), so the
    // aliased pair resolves to one entry and forwards.
    let mut lr = LoadRegUnit::new(4);
    assert_eq!(
        lr.process(1, MemOpKind::Load, mem.canonicalize(addr)),
        Some(LrOutcome::ToMemory)
    );
    assert_eq!(
        lr.process(2, MemOpKind::Load, mem.canonicalize(alias)),
        Some(LrOutcome::WaitOn { provider: 1 })
    );
}
