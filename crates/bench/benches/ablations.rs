//! Ablation benchmarks for the design choices DESIGN.md calls out.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cml_exploit::BufferImage;
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
use cml_vm::{x86, Machine, X86Reg};

/// Ablation 1 — gadget scanning granularity: every-byte (what we ship,
/// finds unintended unaligned gadgets) vs. instruction-aligned-only
/// (cheaper, misses them). The shipped scanner is `GadgetSet::scan`;
/// the aligned variant is reimplemented here from the public decoder.
fn ablation_scan_mode(c: &mut Criterion) {
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let text = fw
        .image()
        .section(cml_image::SectionKind::Text)
        .unwrap()
        .bytes()
        .to_vec();

    c.bench_function("ablation/scan_every_offset", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for start in 0..text.len() {
                if ends_in_ret(&text[start..]) {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    c.bench_function("ablation/scan_linear_sweep", |b| {
        b.iter(|| {
            let mut found = 0usize;
            let mut pos = 0usize;
            while pos < text.len() {
                match x86::decode(&text[pos..]) {
                    Ok((_, len)) => {
                        if ends_in_ret(&text[pos..]) {
                            found += 1;
                        }
                        pos += len;
                    }
                    Err(_) => pos += 1,
                }
            }
            black_box(found)
        })
    });
}

fn ends_in_ret(bytes: &[u8]) -> bool {
    let mut pos = 0usize;
    for _ in 0..6 {
        match x86::decode(&bytes[pos..]) {
            Ok((x86::Insn::Ret, _)) => return true,
            Ok((x86::Insn::PopR(_), len)) => pos += len,
            _ => return false,
        }
    }
    false
}

/// Ablation 2 — frame-simulation fidelity: the vulnerable daemon writes
/// the whole overflow through the simulated MMU; the patched one
/// bounds-checks and stops early. The delta is the price of fidelity.
fn ablation_frame_sim(c: &mut Criterion) {
    use cml_exploit::target::deliver_labels;
    let labels: Vec<Vec<u8>> = vec![vec![0x41u8; 63]; 20];
    for (name, kind) in [
        ("full_frame_write", FirmwareKind::OpenElec),
        ("bounds_checked_early_exit", FirmwareKind::Patched),
    ] {
        let fw = Firmware::build(kind, Arch::X86);
        c.bench_function(format!("ablation/{name}"), |b| {
            b.iter_batched(
                || fw.boot(Protections::none(), 7),
                |mut daemon| deliver_labels(&mut daemon, labels.clone()).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
}

/// Ablation 3 — layout solving: DP labelizer on a constrained chain vs.
/// naive 63-byte chunking of an unconstrained buffer.
fn ablation_labelize(c: &mut Criterion) {
    let mut constrained = BufferImage::filler(1072);
    let mut off = 1072;
    for i in 0..10 {
        constrained.set_word(off, 0x0001_2000 + i);
        constrained.set_flex_word(off + 4, 0);
        off += 8;
    }
    c.bench_function("ablation/labelize_dp", |b| {
        b.iter(|| black_box(&constrained).labelize().unwrap())
    });
    let raw = vec![0x41u8; 1152];
    c.bench_function("ablation/labelize_naive_chunking", |b| {
        b.iter(|| {
            black_box(&raw)
                .chunks(63)
                .map(<[u8]>::to_vec)
                .collect::<Vec<_>>()
        })
    });
}

/// Ablation 4 — predecoded-instruction cache: a genuine backward loop
/// (the same few pcs re-executed ~200 times, like the daemon's parser
/// loops) with the per-page decode cache on (what we ship) vs. forced
/// off (every step re-decodes from raw bytes).
fn ablation_decode_cache(c: &mut Criterion) {
    use cml_image::{Perms, SectionKind};
    // mov ecx, 200; loop: inc eax ×4; dec ecx; jnz loop (body = 7
    // bytes, so rel8 = -7 back past inc/inc/inc/inc/dec + the jnz
    // itself); then exit(0).
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Ecx, 200)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .dec_r(X86Reg::Ecx)
        .jnz_rel8(-7)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .mov_r8_imm(X86Reg::Eax, 1)
        .int80()
        .finish();
    for (name, cache_on) in [("decode_cache_on", true), ("decode_cache_off", false)] {
        c.bench_function(format!("ablation/{name}"), |b| {
            b.iter(|| {
                let mut m = Machine::new(Arch::X86);
                m.set_decode_cache_enabled(cache_on);
                m.mem_mut()
                    .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
                m.mem_mut()
                    .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
                m.mem_mut().poke(0x1000, &code).unwrap();
                m.regs_mut().set_pc(0x1000);
                m.regs_mut().set_sp(0x8800);
                black_box(m.run(10_000))
            })
        });
    }
}

/// Ablation 5 — boot-once/fork-many: one E8-style brute-force trial
/// (boot the OpenELEC/x86 daemon under full protections, deliver one
/// oversized response) paying a full boot per trial vs. forking a
/// snapshot (restore + fresh ASLR re-slide) per trial.
fn ablation_snapshot_vs_reboot(c: &mut Criterion) {
    use cml_exploit::target::deliver_labels;
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let prot = Protections::full();
    let labels: Vec<Vec<u8>> = vec![0x41u8; 1300].chunks(63).map(<[u8]>::to_vec).collect();
    c.bench_function("ablation/snapshot_vs_reboot/fresh_boot", |b| {
        b.iter(|| {
            let mut daemon = fw.boot(prot, 0x5EED_0000);
            black_box(deliver_labels(&mut daemon, labels.clone()))
        })
    });
    let mut forge = fw.forge(prot, 0x5EED_0000);
    c.bench_function("ablation/snapshot_vs_reboot/snapshot_fork", |b| {
        b.iter(|| {
            // A non-base seed so every fork pays the full restore +
            // re-slide path, like an E8 trial.
            let daemon = forge.fork(0x5EED_0001);
            black_box(deliver_labels(daemon, labels.clone()))
        })
    });
}

/// Ablation 6 — threaded-code IR dispatch: the decode-cache hot loop
/// again (a daemon_init-shaped backward loop), dispatching lowered IR
/// blocks (what we ship) vs. the single-step reference.
fn ablation_ir_dispatch(c: &mut Criterion) {
    use cml_image::{Perms, SectionKind};
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Ecx, 2_000)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .dec_r(X86Reg::Ecx)
        .jnz_rel8(-7)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .mov_r8_imm(X86Reg::Eax, 1)
        .int80()
        .finish();
    for (name, ir_on) in [("ir_dispatch", true), ("insn_dispatch", false)] {
        c.bench_function(format!("ablation/ir_vs_insn/{name}"), |b| {
            b.iter(|| {
                let mut m = Machine::new(Arch::X86);
                m.set_ir_dispatch_enabled(ir_on);
                m.mem_mut()
                    .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
                m.mem_mut()
                    .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
                m.mem_mut().poke(0x1000, &code).unwrap();
                m.regs_mut().set_pc(0x1000);
                m.regs_mut().set_sp(0x8800);
                black_box(m.run(100_000))
            })
        });
    }
}

criterion_group!(
    benches,
    ablation_scan_mode,
    ablation_frame_sim,
    ablation_labelize,
    ablation_decode_cache,
    ablation_snapshot_vs_reboot,
    ablation_ir_dispatch
);
criterion_main!(benches);
