//! The record: the one durable-file mechanism of the harness.
//!
//! Five kinds of file outlive a process — `.lke` kernel-cache entries,
//! `.lkt` table records and `.lso` native containers ([`crate::persist`]),
//! `.lcp` snapshots ([`crate::checkpoint`]) and the timing model's
//! calibration ([`crate::threads`]) — and all five are one *record*:
//!
//! ```text
//! <magic> <field>… <payload-len> <sum:016x>\n<payload-len bytes of payload>
//! ```
//!
//! The header has **one spelling**: single spaces, the length in plain
//! decimal with no sign and no leading zero, the sum (the four-lane
//! `payload_sum` of the payload, [`crate::checksum`]) as exactly 16
//! lowercase hex digits.
//! A store differs from the next only in its magic, in the fields — its
//! format stamps first, then whatever key it echoes — and in the grammar
//! of its payload; everything else lives here, once:
//!
//! * `seal` builds a record in one allocation and patches the sum in;
//! * `open` walks the ladder every load walks, **bad header → stale stamp
//!   → wrong key → length → checksum** ([`RejectReason`]), down to the
//!   payload, whose grammar is the store's last rung. A stale record is
//!   refused before any sum is computed: an older format may have summed
//!   differently (every stamp before the four-lane sum did);
//! * `publish` is the only write sequence: stage beside the final name,
//!   `fsync`, rename. A reader finds the old complete record or the new
//!   one, never part of either; what a killed writer leaves is a
//!   `<final>.tmp-<pid>-<seq>` file that the owning store removes
//!   (`remove_orphans`) once it is older than `STALE_AFTER`;
//! * `inject` is the only consumer of the `disk-*` / `ckpt-*` fault
//!   kinds: it damages the bytes just read, so the real ladder — not a
//!   mock — does the rejecting.
//!
//! Every rejection costs time (a recompile, re-computed steps, a
//! recalibration), never correctness.

use crate::checksum::payload_sum;
use crate::faults::{self, FaultKind};
use limpet_rng::SmallRng;
use limpet_vm::LutBytes;
use std::fmt::{self, Display, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Why a record was refused — one variant per rung of the load ladder, in
/// the order the rungs are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Wrong magic, or a header line that is not the one spelling of a
    /// header.
    BadHeader,
    /// The header parsed but carries another build's format stamps.
    StaleVersion,
    /// The header's key echo names another record than the one asked for.
    KeyMismatch,
    /// The bytes after the header line are not exactly as many as it
    /// promises: a torn tail, or bytes appended.
    TornTail,
    /// The payload bytes do not sum to the header's checksum.
    ChecksumMismatch,
    /// The checksum passed but the payload grammar is wrong — bit-rot
    /// that collided the checksum, or a buggy writer.
    Malformed,
}

impl RejectReason {
    /// Kebab-case label, used in counters and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::BadHeader => "bad-header",
            RejectReason::StaleVersion => "stale-version",
            RejectReason::KeyMismatch => "key-mismatch",
            RejectReason::TornTail => "torn-tail",
            RejectReason::ChecksumMismatch => "checksum-mismatch",
            RejectReason::Malformed => "malformed",
        }
    }
}

/// A refused record: the rung it fell on and, for incidents and logs, what
/// was found there. Displays as the detail alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// The ladder rung.
    pub reason: RejectReason,
    /// Human-readable finding, e.g. `checksum mismatch (computed …,
    /// header says …)`.
    pub detail: String,
}

impl Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Builds the record `<magic> <stamps…> <key…> <payload_len> <sum>\n<payload>`
/// in one allocation of the final size: `fill` appends exactly
/// `payload_len` payload bytes, then the sum is patched into the header.
pub(crate) fn seal(
    magic: &str,
    stamps: &[&dyn Display],
    key: &[&dyn Display],
    payload_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    seal_placed(magic, stamps, key, |_| payload_len, fill).expect("a fixed length spells itself")
}

/// [`seal`] of a payload whose length depends on where it starts in the
/// record — a block padded from the record's first byte: `payload_len(at)`
/// is its length when it starts at byte `at`, and `fill` appends it after
/// the header. The header's length depends on the digits of the payload's,
/// so the record is the one whose length spells itself. `None` when no
/// length does: a padded length that gains a digit where the header does
/// loses it again (one block in some millions).
pub(crate) fn seal_placed(
    magic: &str,
    stamps: &[&dyn Display],
    key: &[&dyn Display],
    payload_len: impl Fn(usize) -> usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Option<Vec<u8>> {
    let mut header = String::from(magic);
    for field in stamps.iter().chain(key) {
        let _ = write!(header, " {field}");
    }
    // ` <payload_len> <sum:016x>\n`: the payload starts 19 bytes after the
    // length's digits.
    let payload_len = (1..=20)
        .map(|digits| (digits, payload_len(header.len() + 1 + digits + 18)))
        .find(|(digits, len)| len.to_string().len() == *digits)?
        .1;
    let _ = write!(header, " {payload_len} ");
    let mut out = header.into_bytes();
    let sum_at = out.len();
    out.reserve_exact(17 + payload_len);
    out.extend_from_slice(b"0000000000000000\n"); // the sum, once the payload is there
    let payload_at = out.len();
    fill(&mut out);
    assert_eq!(
        out.len() - payload_at,
        payload_len,
        "a record's payload must be as long as its header says"
    );
    let sum = format!("{:016x}", payload_sum(&out[payload_at..]));
    out[sum_at..sum_at + 16].copy_from_slice(sum.as_bytes());
    Some(out)
}

/// [`seal_placed`] for a record keyed by what it holds: the last field of
/// its key is the payload's sum, which the header states anyway. The record
/// is sealed under a placeholder for it, and the sum is copied in. Returns
/// the record and the sum.
pub(crate) fn seal_by_sum(
    magic: &str,
    stamps: &[&dyn Display],
    key: &[&dyn Display],
    payload_len: impl Fn(usize) -> usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Option<(Vec<u8>, u64)> {
    let placeholder = "0".repeat(16);
    let key: Vec<&dyn Display> = key.iter().copied().chain([&placeholder as _]).collect();
    let mut record = seal_placed(magic, stamps, &key, payload_len, fill)?;
    let header_end = record.iter().position(|&b| b == b'\n');
    let header_end = header_end.expect("a sealed record has a header line");
    let sum_at = header_end - 16;
    // `… <sum> <payload-len> <sum>\n`: the placeholder ends where the length
    // begins.
    let payload_len = record.len() - header_end - 1;
    let key_at = sum_at - 1 - payload_len.to_string().len() - 1 - 16;
    record.copy_within(sum_at..sum_at + 16, key_at);
    let sum = std::str::from_utf8(&record[sum_at..sum_at + 16]).ok();
    let sum = sum.and_then(|hex| u64::from_str_radix(hex, 16).ok());
    Some((record, sum.expect("seal spells the sum in hex")))
}

/// Walks the ladder over `bytes` down to the payload, for the store that
/// seals its records under `magic` with the format `stamps` of this build
/// and is asked for the record of `key`. Every field must be spelled as
/// [`seal`] spells it: `str::parse` also reads `+7` and `007`,
/// `from_str_radix` a sign and upper-case digits.
pub(crate) fn open<'a>(
    bytes: &'a [u8],
    magic: &str,
    stamps: &[&dyn Display],
    key: &[&dyn Display],
) -> Result<&'a [u8], Reject> {
    let reject = |reason, detail: String| Err(Reject { reason, detail });
    let bad = |what: &str| reject(RejectReason::BadHeader, format!("bad header ({what})"));
    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        return bad("no header line");
    };
    let Ok(header) = std::str::from_utf8(&bytes[..header_end]) else {
        return bad("not UTF-8");
    };
    let mut tokens = header.split(' ');
    if tokens.next() != Some(magic) {
        return bad("wrong magic");
    }
    let fields: Vec<&str> = tokens.collect();
    if fields.len() != stamps.len() + key.len() + 2 {
        return bad("wrong field count");
    }
    let (found_stamps, fields) = fields.split_at(stamps.len());
    let (found_key, numbers) = fields.split_at(key.len());
    let len = numbers[0].parse().ok();
    let Some(payload_len) = len.filter(|n: &usize| n.to_string() == numbers[0]) else {
        return bad("payload length");
    };
    let sum = u64::from_str_radix(numbers[1], 16).ok();
    let Some(sum) = sum.filter(|n| format!("{n:016x}") == numbers[1]) else {
        return bad("checksum");
    };
    let spell = |fields: &[&dyn Display]| -> Vec<String> {
        fields.iter().map(|field| field.to_string()).collect()
    };
    let (stamps, key) = (spell(stamps), spell(key));
    if found_stamps != stamps {
        let (found, wants) = (found_stamps.join("/"), stamps.join("/"));
        return reject(
            RejectReason::StaleVersion,
            format!("stale format version ({found}; this build wants {wants})"),
        );
    }
    if found_key != key {
        let (found, wanted) = (found_key.join("/"), key.join("/"));
        return reject(
            RejectReason::KeyMismatch,
            format!("key mismatch (record is {found}, wanted {wanted})"),
        );
    }
    let payload = &bytes[header_end + 1..];
    if payload.len() != payload_len {
        return reject(
            RejectReason::TornTail,
            format!(
                "wrong length (payload {} bytes, header promises {payload_len})",
                payload.len()
            ),
        );
    }
    let got = payload_sum(payload);
    if got != sum {
        return reject(
            RejectReason::ChecksumMismatch,
            format!("checksum mismatch (computed {got:016x}, header says {sum:016x})"),
        );
    }
    Ok(payload)
}

/// Splits the next `\n`-terminated text line off the front of `rest` —
/// the payload grammars of `.lke` and `.lcp` both start as text lines.
pub(crate) fn take_line<'a>(rest: &mut &'a [u8]) -> Option<&'a str> {
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    *rest = &rest[nl + 1..];
    Some(line)
}

/// `<pid>-<seq>`: a name suffix no other call in this process or in a
/// process alive beside it returns, for staging and other transient
/// files — concurrent publishers (the daemon's workers each save at every
/// chunk boundary) and concurrent native builds never share one.
pub(crate) fn unique_suffix() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Atomically replaces `final_path` with `bytes`: staged in
/// `<final>.tmp-<pid>-<seq>` beside it, flushed to the device, then
/// renamed — so a crash cannot leave a complete-looking partial or empty
/// file under the final name. The staging file is removed if any step
/// fails. The directory itself is not synced: a crash straight after may
/// lose the rename (the reader then finds the previous record, or none),
/// which costs what a rejection costs.
pub(crate) fn publish(final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut staging = final_path.as_os_str().to_owned();
    staging.push(format!(".tmp-{}", unique_suffix()));
    let staging = PathBuf::from(staging);
    let published = fs::File::create(&staging).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&staging, final_path)
    });
    if published.is_err() {
        let _ = fs::remove_file(&staging);
    }
    published
}

/// What a crashed process left — a lock file, a staging file — is
/// abandoned once it is older than this; a younger one may belong to a
/// live writer in another process.
pub(crate) const STALE_AFTER: Duration = Duration::from_secs(10);

/// Whether `mtime` lies more than `age` in the past.
pub(crate) fn older_than(mtime: SystemTime, age: Duration) -> bool {
    SystemTime::now()
        .duration_since(mtime)
        .is_ok_and(|elapsed| elapsed > age)
}

/// Removes from `dir` what killed writers left of [`publish`]: the staging
/// files older than `age` whose final name `is_ours` (anything else is not
/// the calling store's to judge). Returns how many went.
pub(crate) fn remove_orphans(dir: &Path, is_ours: impl Fn(&str) -> bool, age: Duration) -> u64 {
    sweep(dir, is_ours, age, |_| {}).unwrap_or(0)
}

/// [`remove_orphans`], handing every item of `dir` it leaves to `rest` in
/// the same listing, for a store that also wants to know what the
/// directory holds. Fails only when `dir` cannot be listed.
pub(crate) fn sweep(
    dir: &Path,
    is_ours: impl Fn(&str) -> bool,
    age: Duration,
    mut rest: impl FnMut(&fs::DirEntry),
) -> io::Result<u64> {
    let mut removed = 0;
    for item in fs::read_dir(dir)?.flatten() {
        let name = item.file_name();
        let staged_for = name.to_str().and_then(|name| name.rsplit_once(".tmp-"));
        let abandoned = staged_for.is_some_and(|(final_name, _writer)| is_ours(final_name))
            && item
                .metadata()
                .and_then(|meta| meta.modified())
                .is_ok_and(|mtime| older_than(mtime, age));
        if abandoned && fs::remove_file(item.path()).is_ok() {
            removed += 1;
        } else {
            rest(&item);
        }
    }
    Ok(removed)
}

/// Applies at most one armed fault of `[torn, corrupt, stale]` to the
/// bytes just read (so a spec arming several spreads them over
/// consecutive loads): truncation at a seeded length, a seeded *payload*
/// byte `^ 0x20` — the checksum rung's to catch, whatever the seed — or
/// the first field, every store's own format stamp, rewritten as if by an
/// incompatible build.
pub(crate) fn inject(bytes: &mut Vec<u8>, [torn, corrupt, stale]: [FaultKind; 3]) {
    if bytes.is_empty() {
        return;
    }
    let header_end = bytes.iter().position(|&b| b == b'\n');
    if let Some(seed) = faults::take(torn) {
        let keep = SmallRng::seed_from_u64(seed).gen_range(0..bytes.len());
        bytes.truncate(keep);
    } else if let Some(seed) = faults::take(corrupt) {
        // Bytes with no payload after a header line are damaged anywhere.
        let payload_at = header_end
            .map(|end| end + 1)
            .filter(|&at| at < bytes.len())
            .unwrap_or(0);
        let at = SmallRng::seed_from_u64(seed).gen_range(payload_at..bytes.len());
        bytes[at] ^= 0x20;
    } else if faults::take(stale).is_some() {
        let header = &bytes[..header_end.unwrap_or(bytes.len())];
        let mut spaces = (0..header.len()).filter(|&at| header[at] == b' ');
        if let (Some(before), Some(after)) = (spaces.next(), spaces.next()) {
            bytes.splice(before + 1..after, *b"999999");
        }
    }
}

/// Reads the record `file` holds: mapped when `map` asks for it and no
/// fault of `kinds` is armed, else — a fault armed, or no mapping to be had
/// — read into an 8-aligned buffer of its own ([`limpet_vm::lut_bytes`]),
/// which the armed fault damages by [`inject`]'s rules, never the file.
/// Either way the bytes start 8-aligned in memory, so that a table
/// record's values can be read where they lie. A mapping reads the file's
/// pages where the kernel caches them: the roster's 43 table records,
/// 35.6 MB, take ≈ 300 page faults mapped, where reading them into fresh
/// memory took 3–5 thousand.
pub(crate) fn read(file: &fs::File, map: bool, kinds: [FaultKind; 3]) -> io::Result<LutBytes> {
    #[cfg(unix)]
    if map && !kinds.into_iter().any(faults::armed) {
        if let Some(mapping) = map::Mapping::of(file) {
            return Ok(Arc::new(mapping));
        }
    }
    let mut bytes = Vec::new();
    io::Read::read_to_end(&mut &*file, &mut bytes)?;
    inject(&mut bytes, kinds);
    Ok(limpet_vm::lut_bytes(bytes))
}

/// A read-only mapping of a whole file: `mmap` and `munmap` (std-only; no
/// crates).
#[cfg(unix)]
mod map {
    use std::fs;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_void};
    use std::ptr::{self, NonNull};

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A whole file mapped read-only and private; unmapped on drop.
    ///
    /// The pages stay what the file held when it was mapped as long as no
    /// one writes the file in place: this crate replaces a record only by
    /// rename (`store::publish`) and removes it only by unlink, and neither
    /// touches a mapped inode. A record truncated in place by another
    /// program ends the process with `SIGBUS` at the first read past its
    /// new end.
    #[derive(Debug)]
    pub(crate) struct Mapping {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `ptr` and `len` are read-only memory that stays mapped until
    // the `Mapping` drops; reading it from any thread is as safe as reading
    // a `&[u8]`.
    unsafe impl Send for Mapping {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// The whole of `file`, mapped; `None` for an empty file or when
        /// the kernel refuses.
        pub(crate) fn of(file: &fs::File) -> Option<Mapping> {
            let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh read-only private mapping of an open
            // descriptor, at an address the kernel picks, aliases no Rust
            // memory.
            let at = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // `MAP_FAILED` is `(void *)-1`.
            if at as usize == usize::MAX {
                return None;
            }
            Some(Mapping {
                ptr: NonNull::new(at.cast())?,
                len,
            })
        }
    }

    impl AsRef<[u8]> for Mapping {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: `ptr` is the start of `len` mapped, readable,
            // page-aligned bytes that stay mapped until `self` drops and that
            // nothing in this process writes (the type's docs say what
            // another process can do).
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `of` made, once; no slice
            // of it outlives `self`.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! One attack suite over the frame, run on all four record kinds a
    //! fault can reach. What is a store's own — stale stamps, key echoes,
    //! payload grammars, rotation, LRU — is tested in that store.

    use super::*;
    use crate::checkpoint::Snapshot;
    use crate::persist::{self, EntryKey};
    use crate::sim::PipelineKind;
    use crate::CompiledKernel;
    use std::sync::Arc;

    /// What a writer killed between staging and rename leaves, as old as
    /// `age`: for the orphan tests of the stores.
    pub(crate) fn plant_aged(path: PathBuf, age: Duration) -> PathBuf {
        fs::write(&path, vec![0u8; 4096]).unwrap();
        let planted = fs::OpenOptions::new().append(true).open(&path).unwrap();
        planted.set_modified(SystemTime::now() - age).unwrap();
        path
    }

    type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<(), RejectReason>;

    /// Rewrites the header line of `record` token by token.
    fn with_header(record: &[u8], edit: impl Fn(&mut Vec<String>)) -> Vec<u8> {
        let header_end = record.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&record[..header_end]).unwrap();
        let mut tokens: Vec<String> = header.split(' ').map(String::from).collect();
        edit(&mut tokens);
        [tokens.join(" ").as_bytes(), &record[header_end..]].concat()
    }

    fn attack(kind: &str, record: &[u8], decode: Decode) {
        assert_eq!(decode(record), Ok(()), "{kind}: the clean record loads");
        let header_len = record.iter().position(|&b| b == b'\n').unwrap() + 1;

        // Every truncation: inside the header line there is no header,
        // after it the payload is shorter than promised.
        for cut in 0..record.len() {
            let want = if cut < header_len {
                RejectReason::BadHeader
            } else {
                RejectReason::TornTail
            };
            assert_eq!(decode(&record[..cut]), Err(want), "{kind}: cut at {cut}");
        }

        // Every byte under a one-bit, a case-bit (what `inject` flips) and
        // an all-bits flip. A payload byte always falls on the checksum
        // rung — the word-wise sum is a bijection in each word — and a
        // header byte before any payload grammar is consulted.
        let mut damaged = record.to_vec();
        for at in 0..record.len() {
            for mask in [0x01, 0x20, 0xff] {
                damaged[at] ^= mask;
                let got = decode(&damaged).expect_err("a damaged record never loads");
                let ok = if at < header_len {
                    got != RejectReason::Malformed
                } else {
                    got == RejectReason::ChecksumMismatch
                };
                assert!(ok, "{kind}: byte {at} ^ {mask:#04x} gave {got:?}");
                damaged[at] ^= mask;
            }
        }

        // Bytes after the payload: the length is exact.
        let appended = [record, b"\n"].concat();
        assert_eq!(decode(&appended), Err(RejectReason::TornTail), "{kind}");

        // The header has one spelling. Each of these is the same header to
        // `split_whitespace`, `str::parse` and `from_str_radix`.
        let n = record[..header_len].iter().filter(|&&b| b == b' ').count() + 1;
        let (len, sum) = (n - 2, n - 1);
        type Edit = Box<dyn Fn(&mut Vec<String>)>;
        let respellings: [(&str, Edit); 5] = [
            ("+len", Box::new(move |t| t[len].insert(0, '+'))),
            ("0len", Box::new(move |t| t[len].insert(0, '0'))),
            ("doubled space", Box::new(|t| t[1].insert(0, ' '))),
            (
                "tab",
                Box::new(|t| {
                    let first_field = t.remove(1);
                    t[0] = format!("{}\t{first_field}", t[0]);
                }),
            ),
            (
                "upper-case sum",
                Box::new(move |t| {
                    assert!(t[sum].bytes().any(|b| b.is_ascii_lowercase()));
                    t[sum].make_ascii_uppercase();
                }),
            ),
        ];
        for (what, edit) in respellings {
            let respelt = with_header(record, edit);
            assert_eq!(
                decode(&respelt),
                Err(RejectReason::BadHeader),
                "{kind}: {what}"
            );
        }
    }

    #[test]
    fn no_damaged_record_of_any_kind_loads() {
        // `.lke`: a model small enough to attack every byte of its entry.
        let m = limpet_easyml::compile_model(
            "CoarseGate",
            "Vm; .external(); .nodal(); .lookup(-100, 100, 5);\n\
             Iion; .external(); .nodal();\n\
             diff_g = 0.1 * exp(-Vm / 18.0) * (1.0 - g) - g / (1.0 + exp(-Vm / 10.0));\n\
             g_init = 0.5;\n\
             Iion = 0.3 * g * (Vm + 54.0);\n",
        )
        .unwrap();
        let m = Arc::new(m);
        let key = EntryKey::new(&m, PipelineKind::Baseline, true);
        let compiled = CompiledKernel::compile(&m, PipelineKind::Baseline);
        let luts = compiled.kernel().shared_luts();
        let (tables, record) = persist::seal_tables(key.fingerprint, luts).unwrap();
        let entry = persist::encode_entry(&key, &m.name, &compiled, &tables);
        attack("lke", &entry, &|bytes| {
            persist::decode_entry(bytes, &key, &m, |named| {
                assert_eq!(*named, tables, "a checksummed entry names its tables");
                Ok(Arc::clone(luts))
            })
            .map(drop)
            .map_err(|reject| reject.reason)
        });

        // `.lkt`: the tables that entry names.
        attack("lkt", &record, &|bytes| {
            persist::open_tables(limpet_vm::lut_bytes(bytes.to_vec()), &tables)
                .map(|decoded| {
                    assert!(limpet_vm::same_luts(&decoded, luts));
                })
                .map_err(|reject| reject.reason)
        });

        // `.lso`.
        let fp = 0xdead_beef_cafe_f00d_u64;
        let object: Vec<u8> = (0..=255u8).cycle().take(301).collect();
        attack("lso", &persist::seal_container(fp, &object), &|bytes| {
            persist::open_container(bytes, fp)
                .map(|payload| assert_eq!(payload, object))
                .map_err(|reject| reject.reason)
        });

        // `.lcp`.
        let snap = Snapshot {
            model: "HodgkinHuxley".into(),
            config: "limpetMLIR-AVX-512".into(),
            n_cells: 3,
            dt_bits: 0.01f64.to_bits(),
            t_bits: 1.23f64.to_bits(),
            steps_done: 321,
            tier: "optimized".into(),
            executed_steps: 4321,
            nan_plan: Some((9, 77)),
            shards: vec![2, 1],
            meta: Some(r#"{"verb":"submit","id":"j-1"}"#.into()),
            state: (0..9u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect(),
        };
        attack("lcp", &snap.encode(), &|bytes| {
            Snapshot::decode(bytes).map(|decoded| assert_eq!(decoded, snap))
        });
    }

    #[test]
    fn sealed_bytes_are_the_header_then_the_payload() {
        let record = seal("magic", &[&7], &[&"key"], 5, |out| {
            out.extend_from_slice(b"hello")
        });
        let sum = payload_sum(b"hello");
        assert_eq!(
            record,
            format!("magic 7 key 5 {sum:016x}\nhello").as_bytes()
        );
        assert_eq!(open(&record, "magic", &[&7], &[&"key"]).unwrap(), b"hello");
        // An empty payload is a record too, and `0` its one spelling.
        let empty = seal("magic", &[], &[], 0, |_| ());
        assert_eq!(open(&empty, "magic", &[], &[]).unwrap(), b"");
        // A record keyed by its sum names it in the key, spelled as the
        // header's sum is.
        let (keyed, sum) = seal_by_sum(
            "magic",
            &[&7],
            &[&"key"],
            |_| 5,
            |out| out.extend_from_slice(b"hello"),
        )
        .unwrap();
        assert_eq!(sum, payload_sum(b"hello"));
        let hex = format!("{sum:016x}");
        assert_eq!(
            open(&keyed, "magic", &[&7], &[&"key", &hex]).unwrap(),
            b"hello"
        );
        assert_eq!(
            keyed,
            format!("magic 7 key {hex} 5 {hex}\nhello").as_bytes()
        );
        // The rungs above the payload, in order: another store's record or
        // one of another shape, another build's, another key's.
        let rung = |magic, stamps: &[&dyn Display], key: &str| {
            open(&record, magic, stamps, &[&key]).unwrap_err().reason
        };
        assert_eq!(rung("other", &[&8], "yek"), RejectReason::BadHeader);
        assert_eq!(rung("magic", &[&7, &9], "key"), RejectReason::BadHeader);
        assert_eq!(rung("magic", &[&8], "yek"), RejectReason::StaleVersion);
        assert_eq!(rung("magic", &[&7], "yek"), RejectReason::KeyMismatch);
    }

    #[test]
    fn a_placed_payload_is_sealed_at_the_length_that_spells_itself() {
        // `m <len> <sum>\n`: a payload of 9 bytes starts at 21, one of 10 at
        // 22. Here a payload that starts at 22 is 10 bytes long, one that
        // starts elsewhere 9 — both spell themselves, and the shorter wins.
        let fill = |len: usize| move |out: &mut Vec<u8>| out.resize(out.len() + len, b'x');
        let len_at = |at: usize| if at == 22 { 10 } else { 9 };
        let record = seal_placed("m", &[], &[], len_at, fill(9)).unwrap();
        assert_eq!(record.len() - 9, 21);
        assert_eq!(open(&record, "m", &[], &[]).unwrap(), b"xxxxxxxxx");
        // 99 bytes at 21 and 100 from 22 on: the length that spells itself
        // is three digits long, the payload then starting at 23.
        let len_at = |at: usize| if at >= 22 { 100 } else { 99 };
        let record = seal_placed("m", &[], &[], len_at, fill(100)).unwrap();
        assert_eq!(record.len() - 100, 23);
        // 100 bytes at 22, 99 at 23 and elsewhere: no length spells itself.
        let len_at = |at: usize| if at == 22 { 100 } else { 99 };
        assert!(seal_placed("m", &[], &[], len_at, fill(99)).is_none());
    }

    #[test]
    fn a_read_record_starts_8_aligned_mapped_or_damaged_in_a_copy() {
        let dir = std::env::temp_dir().join(format!("limpet-store-read-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.bin");
        let record = seal("magic", &[&3], &[&"key"], 4096, |out| {
            out.extend((0..4096).map(|i| (i % 251) as u8))
        });
        publish(&path, &record).unwrap();
        let kinds = [
            FaultKind::DiskTruncate,
            FaultKind::DiskCorrupt,
            FaultKind::DiskStaleVersion,
        ];
        let file = fs::File::open(&path).unwrap();
        for map in [true, false] {
            let bytes = read(&file, map, kinds).unwrap();
            let bytes: &[u8] = (*bytes).as_ref();
            assert_eq!(bytes, record, "map {map}");
            assert_eq!(bytes.as_ptr() as usize % 8, 0, "map {map}");
        }
        // An armed fault damages what this load reads, not the file, and a
        // mapping made before it is left as it was.
        let mapped = read(&file, true, kinds).unwrap();
        let _plan = faults::arm("disk-corrupt@7").unwrap();
        let damaged = read(&file, true, kinds).unwrap();
        let damaged: &[u8] = (*damaged).as_ref();
        assert_ne!(damaged, record);
        assert_eq!(damaged.as_ptr() as usize % 8, 0);
        assert_eq!((*mapped).as_ref(), record);
        assert_eq!(fs::read(&path).unwrap(), record);
        // The mapping outlives its file.
        fs::remove_file(&path).unwrap();
        assert_eq!((*mapped).as_ref(), record);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_replaces_atomically_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("limpet-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.bin");
        publish(&path, b"first").unwrap();
        publish(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // A final name that cannot be renamed onto: the error comes back
        // and the staging file does not stay.
        let squatted = dir.join("squatted");
        fs::create_dir_all(squatted.join("occupied")).unwrap();
        assert!(publish(&squatted, b"third").is_err());
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|item| item.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["record.bin", "squatted"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Whatever the seed, an injected corruption is one the ladder must
    /// catch: `corrupt` lands in the payload (the parent's `disk-corrupt`
    /// could land on a header byte the lenient parser read the same).
    #[test]
    fn injected_faults_always_damage_the_record() {
        let kinds = [
            FaultKind::DiskTruncate,
            FaultKind::DiskCorrupt,
            FaultKind::DiskStaleVersion,
        ];
        let record = seal("magic", &[&3], &[&"key"], 5, |out| {
            out.extend_from_slice(b"hello")
        });
        let header_len = record.len() - 5;
        for seed in 0..64 {
            let corrupt = faults::arm(&format!("disk-corrupt@{seed}")).unwrap();
            let mut bytes = record.clone();
            inject(&mut bytes, kinds);
            assert_eq!(bytes[..header_len], record[..header_len], "seed {seed}");
            assert_ne!(bytes[header_len..], record[header_len..], "seed {seed}");
            drop(corrupt);

            let _truncate = faults::arm(&format!("disk-truncate@{seed}")).unwrap();
            let mut bytes = record.clone();
            inject(&mut bytes, kinds);
            assert!(bytes.len() < record.len() && record.starts_with(&bytes));
        }
        let _plan = faults::arm("disk-stale-version@1").unwrap();
        let mut bytes = record.clone();
        inject(&mut bytes, kinds);
        let sum = payload_sum(b"hello");
        assert_eq!(
            bytes,
            format!("magic 999999 key 5 {sum:016x}\nhello").as_bytes()
        );
        // Nothing armed, nothing done; one plan, one load.
        let mut bytes = record.clone();
        inject(&mut bytes, kinds);
        assert_eq!(bytes, record);
    }
}
