//! The paper's opening anecdote, §1: "When we type a few characters in
//! the notepad text editor, saving this to a file will trigger 26 system
//! calls, including 3 failed open attempts, 1 file overwrite and 4
//! additional file open and close sequences."
//!
//! This example replays that save through the simulated I/O stack and
//! prints the anatomy.
//!
//! ```text
//! cargo run --release --example notepad_anatomy
//! ```

use nt_fs::{NtPath, VolumeConfig};
use nt_io::{AntivirusFilter, DiskParams, Machine, MachineConfig, ProcessId};
use nt_sim::{SimDuration, SimTime};
use nt_trace::{CollectionServer, MachineId, TraceFilter};
use nt_workload::apps::notepad_save;
use nt_workload::plan::run_plan;

fn main() {
    let mut machine = Machine::new(MachineConfig::default(), TraceFilter::new(MachineId(0)));
    // A third-party filter driver in the stack above the FSD, the way
    // §3.2 says virus scanners attach: every create and read pays a scan.
    machine.attach_filter(Box::new(AntivirusFilter::new(SimDuration::from_micros(
        200,
    ))));
    let vol = machine.add_local_volume(
        'C',
        VolumeConfig::local_ntfs(1 << 30),
        DiskParams::local_ide(),
    );
    // The document already exists (we are re-saving it).
    {
        let v = machine.namespace_mut().volume_mut(vol).unwrap();
        let root = v.root();
        let docs = v.mkdir(root, "docs", SimTime::ZERO).unwrap();
        let f = v.create_file(docs, "letter.txt", SimTime::ZERO).unwrap();
        v.set_file_size(f, 640, SimTime::ZERO).unwrap();
    }

    let plan = notepad_save(vol, &NtPath::parse(r"\docs\letter.txt"), 900);
    println!("notepad's save plan is {} file-system calls\n", plan.len());

    let stats = run_plan(&mut machine, ProcessId(12), &plan, SimTime::from_secs(1));
    println!(
        "executed: {} operations, {} failed, {} bytes written, finished at {:?}\n",
        stats.ops, stats.failures, stats.bytes_written, stats.end
    );

    let mut server = CollectionServer::new();
    machine.observer_mut().final_flush(&mut server);
    let records = server.records_for(MachineId(0));

    let mut failed_opens = 0;
    let mut overwrites = 0;
    let mut open_close_pairs = 0;
    println!("the trace, as the filter driver saw it:");
    for rec in &records {
        let kind = format!("{:?}", rec.kind());
        let marker = if rec.status.is_error() {
            failed_opens += 1;
            "  <-- failed"
        } else if rec.disposition.map(|d| d.truncates()).unwrap_or(false) {
            overwrites += 1;
            "  <-- the overwrite"
        } else {
            ""
        };
        if kind.contains("Close") {
            open_close_pairs += 1;
        }
        println!("  {kind:<34} {:?}{marker}", rec.status);
    }
    println!("\nanatomy check (vs the paper's 26 calls):");
    println!("  failed open attempts: {failed_opens} (paper: 3)");
    println!("  file overwrites:      {overwrites} (paper: 1)");
    println!("  close IRPs:           {open_close_pairs}");
    println!("  total records:        {}", records.len());

    // The same save, seen by the driver stack: which layer handled each
    // packet, and how much of the work never built an IRP at all.
    println!("\nthe driver stack, top to bottom:");
    for (name, counters) in machine.stack().layers() {
        println!(
            "  {name:<12} completed {:>3}  passed down {:>3}",
            counters.completed, counters.passed
        );
    }
    println!(
        "  {:<12} completed {:>3}  (the FSD at the bottom)",
        "fsd",
        machine.stack().fsd_completed()
    );
    let fastio: usize = records.iter().filter(|r| r.kind().is_fastio()).count();
    println!(
        "\nfast path: {fastio} FastIO calls short-circuited the stack \
         (no IRP built), {} IRPs descended it",
        records.len() - fastio
    );
    let av: &AntivirusFilter = machine.stack().find().expect("attached at startup");
    println!("antivirus layer scanned {} opens/reads", av.scans());
}
