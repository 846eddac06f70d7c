//! Integration suite for the durable kernel-cache tier: disk round-trips
//! must be bit-identical to cold compiles, every injected disk fault must
//! degrade to a recompile with a recorded incident and then self-heal,
//! quarantined failures must never reach disk, and concurrent access —
//! racing threads in one process and a spawned second process — must
//! serialize to exactly one valid entry per key.
//!
//! A fault plan is current only on the thread that armed it, and every
//! test works through caches and directories of its own, so the tests run
//! in parallel. The second-process tests re-exec this test binary
//! (`std::env::current_exe()`) with an `--exact` filter on an env-gated
//! child test, so no extra fixture binary is needed.

use limpet_harness::{
    faults, CompiledKernel, DiskCache, EntryKey, IncidentKind, KernelCache, PipelineKind,
    Simulation, Workload,
};
use limpet_models::model;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Barrier};

const WL: Workload = Workload {
    n_cells: 8,
    steps: 0,
    dt: 0.01,
};
const STEPS: usize = 200;
const CONFIG: PipelineKind = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);

/// A fresh per-test cache directory under the system temp dir (std-only:
/// no tempfile crate), cleaned before use so stale runs can't leak in.
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("limpet-persist-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the compiled kernel for [`STEPS`] and returns every cell's Vm as
/// raw bits — the bit-identity currency of this suite.
fn trajectory_bits(entry: &CompiledKernel) -> Vec<u64> {
    kernel_bits(entry.kernel(), entry.layout())
}

/// [`trajectory_bits`] of one kernel of an entry.
fn kernel_bits(kernel: &limpet_vm::Kernel, layout: limpet_vm::StateLayout) -> Vec<u64> {
    let mut sim = Simulation::with_kernel(kernel.clone(), layout, &WL);
    sim.run(STEPS);
    (0..WL.n_cells).map(|c| sim.vm(c).to_bits()).collect()
}

fn cache_with_disk(disk: &Arc<DiskCache>) -> KernelCache {
    let cache = KernelCache::new();
    cache.set_disk_cache(Some(Arc::clone(disk)));
    cache
}

/// FNV-1a over the trajectory bits — one u64 that fits on the child
/// process's result line.
fn fnv_digest(bits: &[u64]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits {
        for byte in b.to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    }
    digest
}

#[test]
fn disk_hit_matches_cold_compile_bit_exactly() {
    let dir = temp_cache_dir("roundtrip");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");

    // Cold compile populates the disk tier.
    let seeder = cache_with_disk(&disk);
    let cold = seeder.get_or_compile(&m, CONFIG);
    let s = seeder.stats();
    assert_eq!(s.misses, 1, "cold compile");
    assert_eq!(s.disk_writes, 1, "persisted");
    let cold_bits = trajectory_bits(&cold);

    // A fresh process-level cache (as a second process would have) must
    // be served from disk without compiling.
    let warm = cache_with_disk(&disk);
    let loaded = warm.get_or_compile(&m, CONFIG);
    let s = warm.stats();
    assert_eq!(s.disk_hits, 1, "served from the durable tier");
    assert_eq!(s.misses, 0, "zero cold compiles on the warm path");
    assert_eq!(
        loaded.pass_report().passes[0].name,
        "disk-load",
        "provenance: a loaded entry reports the synthetic disk-load pass"
    );
    assert_eq!(
        trajectory_bits(&loaded),
        cold_bits,
        "disk round-trip must be bit-identical to the cold compile"
    );
    // Cold or loaded, the lazily compiled raw sibling shares the entry's
    // one copy of the tables (the same `Arc`, so the same slice address).
    for entry in [&cold, &loaded] {
        assert!(!entry.kernel().luts().is_empty(), "model tabulates");
        assert!(
            std::ptr::eq(entry.kernel().luts(), entry.raw_kernel().luts()),
            "kernel() and raw_kernel() must share their LUT allocation"
        );
    }

    // The uncached reference agrees too — the persisted kernel is the
    // real thing, not merely self-consistent.
    let mut reference = Simulation::new_uncached(&m, CONFIG, &WL);
    reference.run(STEPS);
    for (cell, &bits) in cold_bits.iter().enumerate() {
        assert_eq!(reference.vm(cell).to_bits(), bits, "cell {cell}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_disk_fault_degrades_to_recompile_and_self_heals() {
    let dir = temp_cache_dir("faults");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("BeelerReuter");

    let seeder = cache_with_disk(&disk);
    let reference_bits = trajectory_bits(&seeder.get_or_compile(&m, CONFIG));

    for spec in ["disk-corrupt@3", "disk-truncate@5", "disk-stale-version@1"] {
        let plan = faults::arm(spec).unwrap();
        let cache = cache_with_disk(&disk);
        let entry = cache.get_or_compile(&m, CONFIG);
        let s = cache.stats();
        assert_eq!(s.disk_rejects, 1, "{spec}: integrity check must reject");
        assert_eq!(s.misses, 1, "{spec}: rejection degrades to a cold compile");
        assert_eq!(
            s.disk_writes, 1,
            "{spec}: the recompile re-stores the entry"
        );
        let incident = cache
            .incidents()
            .iter()
            .find(|i| i.kind == IncidentKind::DiskCacheRejected)
            .cloned()
            .unwrap_or_else(|| panic!("{spec}: rejection must be recorded as an incident"));
        assert!(
            incident.detail.contains("recompiling"),
            "{spec}: incident names the degradation: {}",
            incident.detail
        );
        assert_eq!(
            trajectory_bits(&entry),
            reference_bits,
            "{spec}: degraded path must stay bit-identical"
        );
        drop(plan);

        // Self-heal: the re-stored entry satisfies the next process
        // cleanly — no lingering rejected file, no recompile.
        let verify = cache_with_disk(&disk);
        verify.get_or_compile(&m, CONFIG);
        let s = verify.stats();
        assert_eq!(s.disk_hits, 1, "{spec}: healed entry serves a clean hit");
        assert_eq!(s.disk_rejects, 0, "{spec}: no repeat rejection");
        assert_eq!(s.misses, 0, "{spec}: no repeat compile");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-column, 42-row table: small enough to keep an entry of it in
/// the repository.
const COARSE_GATE: &str = "\
Vm; .external(); .nodal(); .lookup(-100, 100, 5);
Iion; .external(); .nodal();
Vm_init = -65.0;
alpha = 0.1 * exp(-(Vm + 65.0) / 18.0);
beta = 1.0 / (1.0 + exp(-(Vm + 35.0) / 10.0));
diff_g = alpha * (1.0 - g) - beta * g;
g_init = 0.5;
Iion = 0.3 * g * (Vm + 54.0);
";

fn coarse_gate() -> limpet_easyml::Model {
    limpet_easyml::compile_model("CoarseGate", COARSE_GATE).expect("model compiles")
}

fn entry_path(dir: &Path, m: &limpet_easyml::Model, config: PipelineKind) -> PathBuf {
    dir.join(EntryKey::new(m, config, limpet_vm::bytecode_opt_enabled()).file_name())
}

/// Looks `m` up under `config` through a fresh cache over `disk`, which
/// holds a bad entry for it: the entry must be rejected for `reason`,
/// recompiled bit-identically to `reference_bits`, and replaced by a good
/// one.
fn assert_rejected_and_healed(
    disk: &Arc<DiskCache>,
    m: &limpet_easyml::Model,
    config: PipelineKind,
    reason: &str,
    reference_bits: &[u64],
) {
    let cache = cache_with_disk(disk);
    let entry = cache.get_or_compile(m, config);
    let s = cache.stats();
    assert_eq!(
        (s.disk_hits, s.disk_rejects, s.misses, s.disk_writes),
        (0, 1, 1, 1),
        "rejected, recompiled, re-stored"
    );
    let incidents = cache.incidents();
    let incident = incidents
        .iter()
        .find(|i| i.kind == IncidentKind::DiskCacheRejected)
        .expect("rejection is recorded as an incident");
    assert!(incident.detail.contains(reason), "{}", incident.detail);
    assert_eq!(trajectory_bits(&entry), reference_bits);

    let verify = cache_with_disk(disk);
    verify.get_or_compile(m, config);
    let s = verify.stats();
    assert_eq!(
        (s.disk_hits, s.disk_rejects, s.misses),
        (1, 0, 0),
        "the replacement entry serves a clean hit"
    );
}

#[test]
fn entry_written_by_the_parent_build_is_stale_not_misparsed() {
    let dir = temp_cache_dir("parent-entry");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = coarse_gate();
    let (entry, bc) = (
        limpet_harness::persist::ENTRY_FORMAT_VERSION,
        limpet_vm::BYTECODE_FORMAT_VERSION,
    );

    // What eight earlier builds stored for this model: f9ea60c (bytecode
    // format 1: `lutvec` per column, no `lutrow`), 5b0cae0 (entry format 2:
    // the tables as a fourth text section of hex, which this build has no
    // reader for), 0892a15 and c5a12ba (bytecode format 2, which kept every
    // scalar lookup a row of one column: c5a12ba's baseline entry reads the
    // one table at one key in two rows where this build emits one), 091ed00
    // (entry format 3: a `program.raw` section after the main program,
    // which this build neither writes nor reads), 58854f8 (entry format
    // 4: the tables as bytes inside the entry, where this build names a
    // table record), ec7e877 (entry format 5: the printed module as a
    // section before the program, which this build builds from the model)
    // and 7fd044a (entry format 6: this build's grammar under the serial
    // payload sum, refused on its stamp before any sum is computed).
    let baseline = PipelineKind::Baseline;
    let fixtures: [(&[u8], &[u8], PipelineKind); 8] = [
        (
            include_bytes!("entry_written_at_f9ea60c.lke"),
            b"limpet-kernel-cache 1 1 1 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_5b0cae0.lke"),
            b"limpet-kernel-cache 2 1 2 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_0892a15.lke"),
            b"limpet-kernel-cache 3 1 2 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_c5a12ba.lke"),
            b"limpet-kernel-cache 3 1 2 ",
            baseline,
        ),
        (
            include_bytes!("entry_written_at_091ed00.lke"),
            b"limpet-kernel-cache 3 1 3 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_58854f8.lke"),
            b"limpet-kernel-cache 4 1 3 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_ec7e877.lke"),
            b"limpet-kernel-cache 5 1 4 ",
            CONFIG,
        ),
        (
            include_bytes!("entry_written_at_7fd044a.lke"),
            b"limpet-kernel-cache 6 1 4 ",
            CONFIG,
        ),
    ];
    for (parent_entry, stamps, config) in fixtures {
        assert!(parent_entry.starts_with(stamps));
        let path = entry_path(&dir, &m, config);
        std::fs::write(&path, parent_entry).unwrap();
        let reference_bits = trajectory_bits(&CompiledKernel::compile(&m, config));
        assert_rejected_and_healed(&disk, &m, config, "stale format version", &reference_bits);
        let healed = std::fs::read(&path).unwrap();
        assert!(healed.starts_with(format!("limpet-kernel-cache {entry} 1 {bc} ").as_bytes()));
        // A healed entry names its table record, which is on disk.
        let (_, _, named) = read_entry(&path);
        let sum = std::str::from_utf8(&named).unwrap();
        let sum = sum.strip_prefix("tables ").unwrap().trim_end();
        let (_, tables) = read_tables(&dir);
        assert_eq!(tables[3], sum, "{tables:?}");
        assert_eq!(
            tables[..2],
            ["limpet-lut-tables".to_string(), entry.to_string()]
        );
    }

    // The healed baseline entry runs a shorter program to the parent's bits:
    // one row where the parent's main and raw programs had two each, and the
    // trajectory the parent build computed (its FNV-1a digest, printed by
    // that build). The healed CONFIG entry holds its program alone where
    // 091ed00's held a module and two programs and ec7e877's a module and
    // one, and steps to the digest those builds printed, as 58854f8's entry
    // does.
    let rows = |text: &str| text.lines().filter(|l| l.starts_with("lutrow ")).count();
    let sections = |text: &str| {
        let names = text.lines().filter_map(|l| l.strip_prefix("section "));
        names
            .map(|l| l.split(' ').next().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    let parent_text = String::from_utf8_lossy(include_bytes!("entry_written_at_c5a12ba.lke"));
    let (_, healed_text, _) = read_entry(&entry_path(&dir, &m, baseline));
    assert_eq!((rows(&parent_text), rows(&healed_text)), (4, 1));
    let (_, healed_text, _) = read_entry(&entry_path(&dir, &m, CONFIG));
    assert_eq!(sections(&healed_text), ["program.main"]);
    for (parent, held) in [
        (
            &include_bytes!("entry_written_at_091ed00.lke")[..],
            &["module", "program.main", "program.raw"][..],
        ),
        (
            include_bytes!("entry_written_at_ec7e877.lke"),
            &["module", "program.main"],
        ),
    ] {
        assert_eq!(sections(&String::from_utf8_lossy(parent)), held);
    }
    for config in [baseline, CONFIG] {
        let healed = cache_with_disk(&disk).get_or_compile(&m, config);
        assert_eq!(fnv_digest(&trajectory_bits(&healed)), 0x73ee_59cf_2d36_6425);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`COARSE_GATE`] with its gate integrated by Rush-Larsen.
const COARSE_RL_GATE: &str = "\
Vm; .external(); .nodal(); .lookup(-100, 100, 5);
Iion; .external(); .nodal();
Vm_init = -65.0;
alpha = 0.1 * exp(-(Vm + 65.0) / 18.0);
beta = 1.0 / (1.0 + exp(-(Vm + 35.0) / 10.0));
diff_g = alpha * (1.0 - g) - beta * g;
g_init = 0.5;
g; .method(rush_larsen);
Iion = 0.3 * g * (Vm + 54.0);
";

#[test]
fn entry_holding_an_unfused_gate_update_is_stale_and_heals_fused() {
    let dir = temp_cache_dir("unfused-gate");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = limpet_easyml::compile_model("CoarseRlGate", COARSE_RL_GATE).expect("model compiles");
    // What 6e8ae84 stored for it (entry format 5, bytecode format 3): the
    // gate update as the ten instructions this build fuses into one. Run
    // from a warm cache, it would keep the slower program.
    let parent_entry = include_bytes!("entry_written_at_6e8ae84.lke");
    assert!(parent_entry.starts_with(b"limpet-kernel-cache 5 1 3 "));
    let path = entry_path(&dir, &m, CONFIG);
    std::fs::write(&path, parent_entry).unwrap();
    let reference_bits = trajectory_bits(&CompiledKernel::compile(&m, CONFIG));
    assert_rejected_and_healed(&disk, &m, CONFIG, "stale format version", &reference_bits);
    let gates = |text: &str| {
        text.lines()
            .filter(|l| l.starts_with("rushlarsen "))
            .count()
    };
    let (_, healed_text, _) = read_entry(&path);
    let parent_text = String::from_utf8_lossy(parent_entry);
    assert_eq!((gates(&parent_text), gates(&healed_text)), (0, 1));
    // The fused program steps to the trajectory the parent build computed
    // (its FNV-1a digest, printed by that build).
    let healed = cache_with_disk(&disk).get_or_compile(&m, CONFIG);
    assert_eq!(fnv_digest(&trajectory_bits(&healed)), 0xa5d7_c6be_e528_e8a5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The entry at `path` in its three parts: the header's tokens, the
/// `model` line and the framed program, and the `tables` line after them
/// that names the entry's table record.
fn read_entry(path: &Path) -> (Vec<String>, String, Vec<u8>) {
    let bytes = std::fs::read(path).unwrap();
    let line_end = |from: usize| from + bytes[from..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let payload_at = line_end(0);
    let framing_at = line_end(payload_at); // after the `model` line
    let body_at = line_end(framing_at);
    let framing = std::str::from_utf8(&bytes[framing_at..body_at - 1]).unwrap();
    let len: usize = framing.rsplit(' ').next().unwrap().parse().unwrap();
    let at = body_at + len + 1;
    let header = std::str::from_utf8(&bytes[..payload_at - 1]).unwrap();
    (
        header.split(' ').map(String::from).collect(),
        String::from_utf8(bytes[payload_at..at].to_vec()).unwrap(),
        bytes[at..].to_vec(),
    )
}

/// The one table record in `dir`: its path and its header's tokens.
fn read_tables(dir: &Path) -> (PathBuf, Vec<String>) {
    let mut found = std::fs::read_dir(dir)
        .unwrap()
        .map(|item| item.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "lkt"));
    let path = found.next().expect("a table record");
    assert!(
        found.next().is_none(),
        "one table record in {}",
        dir.display()
    );
    let bytes = std::fs::read(&path).unwrap();
    let line = bytes.split(|&b| b == b'\n').next().unwrap();
    let header = std::str::from_utf8(line).unwrap().split(' ');
    (path.clone(), header.map(String::from).collect())
}

/// Writes `text` + `tables` to `path` as the payload of an entry signed the
/// way a mismatched but intact writer would have: the header states the
/// payload's length and sum.
fn write_signed_entry(path: &Path, header: Vec<String>, text: &str, tables: &[u8]) {
    write_signed(path, header, &[text.as_bytes(), tables].concat());
}

/// Writes `payload` to `path` as a record under `header`, whose last two
/// tokens — the payload's length and sum — are set to match.
fn write_signed(path: &Path, mut header: Vec<String>, payload: &[u8]) {
    let n = header.len();
    header[n - 2] = payload.len().to_string();
    // The envelope's payload sum, spelled out: FNV-1a's step over 8-byte
    // little-endian words, word 4k + i of each 32-byte group into lane i
    // (from 32 bytes on), the four lanes folded in order, then the words
    // left over and the tail bytes.
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0100_0000_01b3);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
    let offset = 0xcbf2_9ce4_8422_2325;
    let groups = payload.chunks_exact(32);
    let words = groups.remainder().chunks_exact(8);
    let mut sum = offset;
    if payload.len() >= 32 {
        let mut lanes = [offset; 4];
        for group in groups {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, word(&group[8 * i..8 * i + 8]));
            }
        }
        sum = lanes.into_iter().fold(sum, fold);
    }
    let tail = words.remainder();
    let sum = words.map(word).fold(sum, fold);
    let sum = tail.iter().map(|&b| u64::from(b)).fold(sum, fold);
    header[n - 1] = format!("{sum:016x}");
    let record = [header.join(" ").as_bytes(), b"\n", payload].concat();
    std::fs::write(path, record).unwrap();
}

/// Rewrites the text part of the entry at `path` line by line — `edit` gets
/// each line's space-separated tokens and says whether it changed them —
/// carries the table bytes through untouched and re-signs the entry, so
/// that header, section lengths, checksum and bytecode text all parse.
/// Returns how many lines changed.
fn forge_entry(path: &Path, mut edit: impl FnMut(&mut Vec<String>) -> bool) -> usize {
    let (header, text, tables) = read_entry(path);
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let (mut edited, mut section) = (0, 0);
    for at in 0..lines.len() {
        if lines[at].starts_with("section ") {
            section = at;
            continue;
        }
        let mut tokens: Vec<String> = lines[at].split(' ').map(String::from).collect();
        if edit(&mut tokens) {
            let line = tokens.join(" ");
            let grown = line.len() as isize - lines[at].len() as isize;
            lines[at] = line;
            // `section <name> <len>` frames the bytes the line sits in.
            let (name, len) = lines[section].rsplit_once(' ').unwrap();
            lines[section] = format!("{name} {}", len.parse::<isize>().unwrap() + grown);
            edited += 1;
        }
    }
    write_signed_entry(path, header, &(lines.join("\n") + "\n"), &tables);
    edited
}

#[test]
fn entry_naming_a_missing_lut_column_is_rejected_not_executed() {
    let dir = temp_cache_dir("lut-column");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = coarse_gate();
    let reference_bits = trajectory_bits(&cache_with_disk(&disk).get_or_compile(&m, CONFIG));

    // Point the first column of every row lookup past the table's two
    // columns.
    let rows = forge_entry(&entry_path(&dir, &m, CONFIG), |tokens| {
        let row = tokens[0] == "lutrow";
        if row {
            tokens[5] = "7".into();
        }
        row
    });
    assert!(rows >= 1, "the program reads the table");

    assert_rejected_and_healed(&disk, &m, CONFIG, "lut column 7", &reference_bits);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_naming_a_register_outside_its_file_is_rejected_not_executed() {
    let dir = temp_cache_dir("register");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = coarse_gate();
    let reference_bits = trajectory_bits(&cache_with_disk(&disk).get_or_compile(&m, CONFIG));

    // A float binop writing a register no file of this size has: run, it
    // would index past the engine's register file inside the step loop.
    let binops = forge_entry(&entry_path(&dir, &m, CONFIG), |tokens| {
        let binop = tokens[0] == "binf";
        if binop {
            tokens[2] = "60000".into();
        }
        binop
    });
    assert!(binops >= 1, "the program has a float binop");
    assert_rejected_and_healed(
        &disk,
        &m,
        CONFIG,
        "register f60000 out of range",
        &reference_bits,
    );

    // And a register file no operand could address all of, which the engine
    // would try to allocate.
    let headers = forge_entry(&entry_path(&dir, &m, CONFIG), |tokens| {
        let regs = tokens[0] == "regs";
        if regs {
            tokens[1] = "1152921504606846976".into();
        }
        regs
    });
    assert_eq!(headers, 1, "one program per entry");
    assert_rejected_and_healed(
        &disk,
        &m,
        CONFIG,
        "operands address at most 65536",
        &reference_bits,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The table block of [`coarse_gate`]'s table record is one 42-row,
/// 2-column table: `luts 1\n`, the `lut … 42 2\n` line, 672 bytes, `\n`, `end\n`.
const GATE_TABLE_BYTES: usize = 42 * 2 * 8;

/// Where the table's line starts in that block, and where its data does.
const GATE_LINE_AT: usize = "luts 1\n".len();

fn gate_data_at(tables: &[u8]) -> usize {
    let line = &tables[GATE_LINE_AT..];
    GATE_LINE_AT + line.iter().position(|&b| b == b'\n').unwrap() + 1
}

/// An edit of the block that makes the table's line state `rows` × `cols`.
fn with_dims(rows: &'static str, cols: &'static str) -> impl Fn(&mut Vec<u8>) {
    move |tables| {
        let line_end = gate_data_at(tables) - 1;
        let line = std::str::from_utf8(&tables[GATE_LINE_AT..line_end]).unwrap();
        let lead = line.strip_suffix(" 42 2").expect(line);
        let line = format!("{lead} {rows} {cols}");
        tables.splice(GATE_LINE_AT..line_end, line.into_bytes());
    }
}

#[test]
fn malformed_table_blocks_are_rejected_not_loaded() {
    let dir = temp_cache_dir("table-block");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = coarse_gate();
    let path = entry_path(&dir, &m, CONFIG);
    let reference_bits = trajectory_bits(&cache_with_disk(&disk).get_or_compile(&m, CONFIG));

    // Each case re-signs the table record over an edited block, so only the
    // block's own reader stands between it and the step loop.
    let resign = |edit: &dyn Fn(&mut Vec<u8>)| {
        let (tables_path, header) = read_tables(&dir);
        let bytes = std::fs::read(&tables_path).unwrap();
        let mut tables = bytes[header.join(" ").len() + 1..].to_vec();
        edit(&mut tables);
        write_signed(&tables_path, header, &tables);
    };
    type Edit = Box<dyn Fn(&mut Vec<u8>)>;
    let cases: Vec<(&str, Edit, &str)> = vec![
        // More values than the block holds …
        ("one row more", Box::new(with_dims("43", "2")), "cut short"),
        (
            "one column more",
            Box::new(with_dims("42", "3")),
            "cut short",
        ),
        // … fewer, so that data sits where the terminator should (or, were
        // that byte a newline, a grid of the wrong height) …
        (
            "one row fewer",
            Box::new(with_dims("41", "2")),
            "bad LUT data",
        ),
        (
            "one column fewer",
            Box::new(with_dims("42", "1")),
            "bad LUT data",
        ),
        ("no rows", Box::new(with_dims("0", "2")), "bad LUT data"),
        ("no columns", Box::new(with_dims("42", "0")), "bad LUT data"),
        // … and counts whose product, or its size in bytes, overflows: 2^61
        // values are 2^64 bytes (0 once wrapped), 2^61 + 2 wrap to 16.
        (
            "2^61 rows",
            Box::new(with_dims("2305843009213693952", "1")),
            "dimensions overflow",
        ),
        (
            "2^61 + 2 rows",
            Box::new(with_dims("2305843009213693954", "1")),
            "dimensions overflow",
        ),
        (
            "2^61 columns",
            Box::new(with_dims("1", "2305843009213693952")),
            "dimensions overflow",
        ),
        (
            "usize::MAX rows",
            Box::new(with_dims("18446744073709551615", "2")),
            "dimensions overflow",
        ),
        (
            "usize::MAX columns",
            Box::new(with_dims("42", "18446744073709551615")),
            "dimensions overflow",
        ),
        (
            "rows no usize holds",
            Box::new(with_dims("99999999999999999999999", "2")),
            "bad count",
        ),
        (
            "rows not a number",
            Box::new(with_dims("many", "2")),
            "bad count",
        ),
        (
            "negative columns",
            Box::new(with_dims("42", "-2")),
            "bad count",
        ),
        (
            "a block cut short",
            Box::new(|t| {
                let at = gate_data_at(t);
                t.drain(at..at + 8);
            }),
            "cut short",
        ),
        (
            "no newline after the block",
            Box::new(|t| {
                let at = gate_data_at(t) + GATE_TABLE_BYTES;
                assert_eq!(t.remove(at), b'\n');
            }),
            "bad terminator",
        ),
        (
            "bytes after end",
            Box::new(|t| t.push(b'\n')),
            "expected 'end' after 1 lut(s)",
        ),
        (
            "more tables counted than present",
            Box::new(|t| t[5] = b'2'),
            "expected 'lut' header",
        ),
        (
            "fewer tables counted than present",
            Box::new(|t| t[5] = b'0'),
            "expected 'end' after 0 lut(s)",
        ),
    ];
    for (what, edit, reason) in &cases {
        println!("case: {what}"); // shown with a failure
        resign(edit.as_ref());
        assert_rejected_and_healed(&disk, &m, CONFIG, reason, &reference_bits);
    }

    // A byte of a table flipped on disk, under the header's old sum: the
    // checksum rung covers the block.
    let (tables_path, _) = read_tables(&dir);
    let mut bytes = std::fs::read(&tables_path).unwrap();
    let at = bytes.len() - b"\nend\n".len() - GATE_TABLE_BYTES / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&tables_path, &bytes).unwrap();
    assert_rejected_and_healed(&disk, &m, CONFIG, "checksum mismatch", &reference_bits);

    // And the entry's text framing: a section that claims the rest of the
    // address space.
    let (header, text, tables) = read_entry(&path);
    let framing = text.lines().nth(1).unwrap();
    assert!(framing.starts_with("section program.main "), "{framing}");
    let text = text.replacen(framing, "section program.main 18446744073709551615", 1);
    write_signed_entry(&path, header, &text, &tables);
    assert_rejected_and_healed(
        &disk,
        &m,
        CONFIG,
        "section 'program.main' is truncated",
        &reference_bits,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_naming_another_model_is_rejected_not_loaded() {
    let dir = temp_cache_dir("model-line");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = coarse_gate();
    let path = entry_path(&dir, &m, CONFIG);
    let reference_bits = trajectory_bits(&cache_with_disk(&disk).get_or_compile(&m, CONFIG));

    // Re-signed, so that only the payload's own reader sees the other name:
    // the program is bound by position, and would run.
    let (header, text, tables) = read_entry(&path);
    let text = text.replacen("model CoarseGate\n", "model FineGate\n", 1);
    write_signed_entry(&path, header, &text, &tables);
    assert_rejected_and_healed(
        &disk,
        &m,
        CONFIG,
        "model mismatch (entry records 'FineGate', wanted 'CoarseGate')",
        &reference_bits,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_warm_entries_match_their_cold_twins_over_the_roster() {
    let dir = temp_cache_dir("roster");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let (cold_cache, warm_cache) = (cache_with_disk(&disk), cache_with_disk(&disk));
    let configs = [PipelineKind::Baseline, CONFIG];
    for name in limpet_models::all_names() {
        let m = model(name);
        for config in configs {
            let cold = cold_cache.get_or_compile(&m, config);
            let warm = warm_cache.get_or_compile(&m, config);
            let what = format!("{name} {}", config.label());
            assert!(!cold.module_built() && !warm.module_built(), "{what}");
            assert_eq!(
                limpet_ir::print_module(warm.module()),
                limpet_ir::print_module(cold.module()),
                "{what}"
            );
            assert_eq!(warm.layout(), cold.layout(), "{what}");
            assert_eq!(warm.kernel().width(), cold.kernel().width(), "{what}");
            assert_eq!(warm.kernel().width(), config.lanes(), "{what}");
            let raw_digest =
                |e: &CompiledKernel| fnv_digest(&kernel_bits(e.raw_kernel(), e.layout()));
            assert_eq!(raw_digest(&warm), raw_digest(&cold), "{what}");
        }
    }
    let kernels = (limpet_models::all_names().len() * configs.len()) as u64;
    let (c, w) = (cold_cache.stats(), warm_cache.stats());
    assert_eq!((c.misses, c.disk_writes), (kernels, kernels));
    assert_eq!((w.disk_hits, w.disk_rejects, w.misses), (kernels, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_models_configurations_write_one_table_record_and_share_it() {
    let dir = temp_cache_dir("one-table-record");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");
    let configs = [PipelineKind::Baseline, CONFIG];

    // The cold cache stores both entries and one table record, and its two
    // kernels read one copy of the tables.
    let cold_cache = cache_with_disk(&disk);
    let cold = configs.map(|config| cold_cache.get_or_compile(&m, config));
    assert!(!cold[0].kernel().luts().is_empty(), "the model tabulates");
    assert!(cold[0].kernel().shares_luts(cold[1].kernel()));
    assert_eq!(cold_cache.stats().disk_writes, 2, "writes count entries");
    let status = disk.status().expect("readable cache dir");
    assert_eq!((status.entries, status.tables), (2, 1));
    let (tables_path, _) = read_tables(&dir);
    let on_disk = std::fs::metadata(&tables_path).unwrap().len();
    let entries: u64 = configs
        .iter()
        .map(|&config| {
            std::fs::metadata(entry_path(&dir, &m, config))
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(status.bytes, on_disk + entries, "bytes count every record");

    // So do a fresh cache's, loaded from disk, and they step as the cold
    // ones do.
    let warm_cache = cache_with_disk(&Arc::new(DiskCache::open(&dir).expect("dir")));
    let warm = configs.map(|config| warm_cache.get_or_compile(&m, config));
    let s = warm_cache.stats();
    assert_eq!((s.disk_hits, s.disk_rejects, s.misses), (2, 0, 0));
    assert!(warm[0].kernel().shares_luts(warm[1].kernel()));
    assert!(
        !warm[0].kernel().shares_luts(cold[0].kernel()),
        "another cache"
    );
    for (warm, cold) in warm.iter().zip(&cold) {
        assert_eq!(trajectory_bits(warm), trajectory_bits(cold));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disk_hit_and_a_cold_compile_of_one_model_share_its_tables() {
    let dir = temp_cache_dir("disk-hit-meets-cold");
    let m = model("HodgkinHuxley");
    cache_with_disk(&Arc::new(DiskCache::open(&dir).expect("temp cache dir")))
        .get_or_compile(&m, PipelineKind::Baseline);

    // A new process loads the stored configuration and compiles the other.
    let warm_cache = cache_with_disk(&Arc::new(DiskCache::open(&dir).expect("dir")));
    let loaded = warm_cache.get_or_compile(&m, PipelineKind::Baseline);
    let cold = warm_cache.get_or_compile(&m, CONFIG);
    let s = warm_cache.stats();
    assert_eq!((s.disk_hits, s.misses), (1, 1));
    assert!(loaded.kernel().shares_luts(cold.kernel()));
    assert_eq!(
        (s.table_sets, s.table_bytes),
        (1, cold.kernel().lut_bytes() as u64)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_compilations_are_never_persisted() {
    let dir = temp_cache_dir("quarantine");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("BeelerReuter");

    let plan = faults::arm("verify-fail@9").unwrap();
    let cache = cache_with_disk(&disk);
    let err = cache
        .try_get_or_compile(&m, CONFIG)
        .expect_err("injected verify failure must quarantine");
    assert_eq!(err.model, "BeelerReuter");
    assert_eq!(cache.stats().quarantined, 1);

    // The negative result stays process-local: nothing reached disk.
    let status = disk.status().expect("readable cache dir");
    assert_eq!(status.entries, 0, "no entry file for a quarantined build");
    assert_eq!(disk.stats().writes, 0, "no store was even attempted");
    drop(plan);

    // Sanity: with the fault spent, the same key compiles and persists —
    // so the empty dir above was the quarantine gate, not a broken store.
    let retry = cache_with_disk(&disk);
    retry.get_or_compile(&m, CONFIG);
    assert_eq!(disk.status().expect("readable").entries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_threads_serialize_to_one_valid_entry() {
    let dir = temp_cache_dir("thread-race");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");

    // Two threads, each with its own process-level cache (so both miss
    // memory), race the same key into one shared disk tier. The store
    // path serializes on the lock file; whatever interleaving happens,
    // the durable outcome must be exactly one valid entry.
    let barrier = Arc::new(Barrier::new(2));
    let digests: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let disk = Arc::clone(&disk);
                let barrier = Arc::clone(&barrier);
                let m = &m;
                scope.spawn(move || {
                    let cache = cache_with_disk(&disk);
                    barrier.wait();
                    trajectory_bits(&cache.get_or_compile(m, CONFIG))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(
        digests[0], digests[1],
        "racing results must agree bit-exactly"
    );

    let status = disk.status().expect("readable cache dir");
    assert_eq!(status.entries, 1, "exactly one entry file per key");

    // And that one entry is valid: a fresh cache gets a clean disk hit
    // that reproduces the racers' trajectory.
    let verify = cache_with_disk(&disk);
    let entry = verify.get_or_compile(&m, CONFIG);
    let s = verify.stats();
    assert_eq!((s.disk_hits, s.disk_rejects, s.misses), (1, 0, 0), "{s:?}");
    assert_eq!(trajectory_bits(&entry), digests[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Env-gated worker for the multi-process tests: does nothing under a
/// normal `cargo test` run. When `LIMPET_PERSIST_CHILD_DIR` is set (by a
/// parent test re-executing this binary), it opens the shared cache dir,
/// acquires the kernel through a fresh cache, and prints one structured
/// result line for the parent to parse.
#[test]
fn child_process_disk_probe() {
    let Ok(dir) = std::env::var("LIMPET_PERSIST_CHILD_DIR") else {
        return;
    };
    let disk = Arc::new(DiskCache::open(Path::new(&dir)).expect("shared cache dir"));
    let cache = cache_with_disk(&disk);
    let m = model("HodgkinHuxley");
    let entry = cache.get_or_compile(&m, CONFIG);
    let digest = fnv_digest(&trajectory_bits(&entry));
    let s = cache.stats();
    let d = disk.stats();
    println!(
        "child-result digest={digest:016x} misses={} disk_hits={} stale_broken={} \
         lock_retries={}",
        s.misses, s.disk_hits, d.stale_locks_broken, d.lock_retries
    );
}

/// The parsed fields of one `child-result` line.
struct ChildResult {
    digest: u64,
    misses: u64,
    disk_hits: u64,
    stale_broken: u64,
}

/// Re-executes this test binary filtered down to the child probe above,
/// pointed at `dir`.
fn spawn_child(dir: &Path) -> std::process::Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "child_process_disk_probe", "--nocapture"])
        .env("LIMPET_PERSIST_CHILD_DIR", dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child test process")
}

fn parse_child_result(child: std::process::Child) -> ChildResult {
    let out = child.wait_with_output().expect("child runs to completion");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child process failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Under --nocapture libtest prints its own "test ... " prefix on the
    // same line, so search for the marker anywhere, not at line start.
    let line = stdout
        .lines()
        .find_map(|l| l.split("child-result ").nth(1))
        .unwrap_or_else(|| panic!("no child-result line in:\n{stdout}"));
    let field = |key: &str| -> u64 {
        let tok = line
            .split_whitespace()
            .find_map(|t| t.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in '{line}'"));
        u64::from_str_radix(tok, 16)
            .or_else(|_| tok.parse())
            .unwrap_or_else(|_| panic!("bad {key} in '{line}'"))
    };
    ChildResult {
        digest: field("digest"),
        misses: field("misses"),
        disk_hits: field("disk_hits"),
        stale_broken: field("stale_broken"),
    }
}

#[test]
fn second_process_warm_run_has_zero_cold_compiles() {
    let dir = temp_cache_dir("second-process");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");

    // This process compiles cold and persists; the spawned process must
    // then reach the same kernel without a single compile.
    let seeder = cache_with_disk(&disk);
    let parent_digest = fnv_digest(&trajectory_bits(&seeder.get_or_compile(&m, CONFIG)));

    let child = parse_child_result(spawn_child(&dir));
    assert_eq!(child.misses, 0, "second process must not compile");
    assert_eq!(child.disk_hits, 1, "second process is served from disk");
    assert_eq!(child.digest, parent_digest, "cross-process bit-identity");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_processes_serialize_to_one_valid_entry() {
    let dir = temp_cache_dir("process-race");
    // Note: no seeding — both children start from an empty dir, so both
    // (very likely) compile cold and race their stores through the lock
    // file. Either interleaving is acceptable; the durable outcome isn't.
    let a = spawn_child(&dir);
    let b = spawn_child(&dir);
    let digest_a = parse_child_result(a).digest;
    let digest_b = parse_child_result(b).digest;
    assert_eq!(
        digest_a, digest_b,
        "racing processes must agree bit-exactly"
    );

    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let status = disk.status().expect("readable cache dir");
    assert_eq!(status.entries, 1, "exactly one entry file per key");

    // The surviving entry passes the full integrity ladder.
    let verify = cache_with_disk(&disk);
    let entry = verify.get_or_compile(&model("HodgkinHuxley"), CONFIG);
    let s = verify.stats();
    assert_eq!((s.disk_hits, s.disk_rejects, s.misses), (1, 0, 0), "{s:?}");
    assert_eq!(
        fnv_digest(&trajectory_bits(&entry)),
        digest_a,
        "survivor reproduces the racers' trajectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_lock_from_crashed_process_is_broken_by_the_next() {
    let dir = temp_cache_dir("stale-lock");
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");

    // First writer "crashes" while holding the directory lock: the
    // injected fault leaks the lock guard mid-store, so no entry lands
    // but the lock file stays behind — exactly what a killed process
    // leaves. The compile itself succeeds in memory, so we still get the
    // reference digest.
    let plan = faults::arm("lock-holder-crash@1").unwrap();
    let crashed = cache_with_disk(&disk);
    let parent_digest = fnv_digest(&trajectory_bits(&crashed.get_or_compile(&m, CONFIG)));
    drop(plan);
    assert!(
        disk.lock_path().exists(),
        "crashed writer abandons its lock file"
    );
    assert_eq!(
        disk.status().expect("readable").entries,
        0,
        "the store died with the writer"
    );

    // Age the abandoned lock past the stale threshold — the moral
    // equivalent of waiting ten seconds, without the ten seconds.
    std::fs::OpenOptions::new()
        .write(true)
        .open(disk.lock_path())
        .and_then(|f| {
            f.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
        })
        .expect("backdate lock file");

    // A second process starting cold must break the stale lock, compile,
    // and persist — not hang waiting on a writer that no longer exists.
    let child = parse_child_result(spawn_child(&dir));
    assert_eq!(
        child.misses, 1,
        "nothing persisted; the child compiles cold"
    );
    assert!(
        child.stale_broken >= 1,
        "the child broke the abandoned lock"
    );
    assert_eq!(
        child.digest, parent_digest,
        "cross-process bit-identity survives the crash"
    );
    assert!(
        !disk.lock_path().exists(),
        "lock released after the child's store"
    );
    assert_eq!(
        disk.status().expect("readable").entries,
        1,
        "exactly one valid entry per key"
    );

    // And that entry is genuinely valid: a fresh cache is served a clean
    // disk hit that reproduces the crashed writer's trajectory.
    let verify = cache_with_disk(&disk);
    let entry = verify.get_or_compile(&m, CONFIG);
    let s = verify.stats();
    assert_eq!((s.disk_hits, s.disk_rejects, s.misses), (1, 0, 0), "{s:?}");
    assert_eq!(fnv_digest(&trajectory_bits(&entry)), parent_digest);
    let _ = std::fs::remove_dir_all(&dir);
}
