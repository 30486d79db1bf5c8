//! Versioned, checksummed checkpoints for the streaming pipeline.
//!
//! A checkpoint is one file, `<dir>/checkpoint.ckpt`:
//!
//! ```text
//! file    := magic("BTPUBCKP") version(u32 LE) header payload crc32(u32 LE)
//! header  := self-describing campaign fingerprint (scenario, seed, knobs)
//! payload := opaque encoder bytes from the aggregator (caller-owned)
//! crc32   := IEEE CRC-32 over every byte before it (magic included)
//! ```
//!
//! Writes are atomic: the file is assembled in `<dir>/checkpoint.ckpt.tmp`,
//! fsynced, renamed over the live checkpoint, and the directory is fsynced
//! — so a crash at any instruction leaves either the old checkpoint or the
//! new one, never a blend. Reads verify the trailing CRC over the whole
//! file *before* any field is parsed, so a torn or bit-flipped checkpoint
//! is a named [`CheckpointError::Corrupt`], never a misparse.
//!
//! The header is a fingerprint of everything that determines the byte
//! stream of records: resuming under a different scenario, seed, format
//! version, or crawl knob is refused by [`CheckpointHeader::ensure_matches`]
//! with the offending field named — never silently ignored, because a
//! silently-accepted mismatch would produce a report that looks plausible
//! and is wrong.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::warn_once;

/// On-disk magic for a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"BTPUBCKP";
/// Bumped whenever the header or payload encoding changes shape.
pub const CHECKPOINT_VERSION: u32 = 1;
/// File name of the live checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ckpt";

/// IEEE CRC-32 (same polynomial as gzip/zip), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Incremental [`crc32`] for writers that stream bytes out.
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: !0 }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        for &b in data {
            c = crc_step(c, b);
        }
        self.state = c;
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

fn crc_step(c: u32, b: u8) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
}

/// Why a checkpoint could not be written, read, or accepted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io { path: PathBuf, source: std::io::Error },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic { path: PathBuf },
    /// Format version on disk differs from this binary's.
    Version { path: PathBuf, found: u32, expected: u32 },
    /// The trailing CRC-32 does not cover the bytes on disk.
    Corrupt { path: PathBuf, expected: u32, found: u32 },
    /// Structurally invalid bytes after the CRC passed (a bug, not decay).
    Decode { what: &'static str },
    /// The checkpoint fingerprint names a different campaign.
    Mismatch { field: &'static str, expected: String, found: String },
    /// A spill run named in the checkpoint manifest is gone.
    SpillRunMissing { path: PathBuf },
    /// A spill run named in the checkpoint manifest fails its CRC.
    SpillRunCorrupt { path: PathBuf, detail: String },
    /// The checkpoint holds spilled state but no spill dir was given.
    SpillUnavailable,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "checkpoint io error at {path:?}: {source}"),
            Self::BadMagic { path } => {
                write!(f, "checkpoint {path:?} refused: bad magic (not a btpub checkpoint)")
            }
            Self::Version { path, found, expected } => write!(
                f,
                "checkpoint {path:?} refused: format version mismatch (file v{found}, binary v{expected})"
            ),
            Self::Corrupt { path, expected, found } => write!(
                f,
                "checkpoint {path:?} refused: crc mismatch (stored {expected:#010x}, computed {found:#010x}) — file is corrupt or truncated"
            ),
            Self::Decode { what } => write!(f, "checkpoint decode error in {what}"),
            Self::Mismatch { field, expected, found } => write!(
                f,
                "checkpoint refused: {field} mismatch (checkpoint has {found:?}, this run has {expected:?})"
            ),
            Self::SpillRunMissing { path } => {
                write!(f, "checkpoint refused: spill run {path:?} named in manifest is missing")
            }
            Self::SpillRunCorrupt { path, detail } => {
                write!(f, "checkpoint refused: spill run {path:?} corrupt ({detail})")
            }
            Self::SpillUnavailable => write!(
                f,
                "checkpoint refused: it holds spilled distinct-IP runs but no --spill-dir was given"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only little-endian encoder for checkpoint payloads.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style decoder matching [`Enc`]. Every read is bounds-checked;
/// running off the end is a [`CheckpointError::Decode`], never a panic —
/// though in practice the whole-file CRC has already vouched for the
/// bytes, so a decode error indicates an encoder/decoder mismatch bug.
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CheckpointError::Decode { what })?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Decode { what: "usize" })
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }

    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| CheckpointError::Decode { what: "utf8 string" })
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.usize()?;
        Ok(self.take(n, "bytes")?.to_vec())
    }

    /// Bytes not yet read: what bounds any length or count field still
    /// to come.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// Self-describing fingerprint of the campaign a checkpoint belongs to.
///
/// Everything that determines the record stream (and therefore whether a
/// fold cursor is meaningful) lives here; [`Self::ensure_matches`] refuses
/// any divergence by field name.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// Scenario name, e.g. `"pb10"`.
    pub scenario: String,
    /// Campaign seed — every RNG draw is pure in `(seed, stream, index)`.
    pub seed: u64,
    /// Torrent count of the scenario's scale.
    pub torrents: u64,
    /// Campaign duration in simulated seconds.
    pub duration_secs: u64,
    /// Fault profile name (faults are seeded draws; same profile + seed =
    /// same fault sequence).
    pub fault_profile: String,
    /// Whether the crawl collects usernames (changes the fold semantics).
    pub has_usernames: bool,
    /// Whether the crawler runs in single-query mode.
    pub single_query: bool,
    /// Top-k the reports use.
    pub top_k: u64,
    /// Optional monitor horizon cap in simulated seconds (`u64::MAX` =
    /// uncapped).
    pub horizon_cap_secs: u64,
    /// Quantile-sketch budget the reports will use (self-description; the
    /// sketch itself is report-time-only and never checkpointed).
    pub sketch_budget: u64,
    /// Fold cursor: how many records (in announcement order) the payload
    /// state has absorbed.
    pub records_folded: u64,
}

impl CheckpointHeader {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.scenario);
        enc.u64(self.seed);
        enc.u64(self.torrents);
        enc.u64(self.duration_secs);
        enc.str(&self.fault_profile);
        enc.bool(self.has_usernames);
        enc.bool(self.single_query);
        enc.u64(self.top_k);
        enc.u64(self.horizon_cap_secs);
        enc.u64(self.sketch_budget);
        enc.u64(self.records_folded);
    }

    fn decode(dec: &mut Dec) -> Result<Self, CheckpointError> {
        Ok(Self {
            scenario: dec.str()?,
            seed: dec.u64()?,
            torrents: dec.u64()?,
            duration_secs: dec.u64()?,
            fault_profile: dec.str()?,
            has_usernames: dec.bool()?,
            single_query: dec.bool()?,
            top_k: dec.u64()?,
            horizon_cap_secs: dec.u64()?,
            sketch_budget: dec.u64()?,
            records_folded: dec.u64()?,
        })
    }

    /// Refuses a checkpoint whose fingerprint differs from this run's,
    /// naming the first offending field. `records_folded` is progress,
    /// not identity, and is excluded.
    pub fn ensure_matches(&self, current: &CheckpointHeader) -> Result<(), CheckpointError> {
        fn check<T: PartialEq + std::fmt::Display>(
            field: &'static str,
            found: T,
            expected: T,
        ) -> Result<(), CheckpointError> {
            if found == expected {
                Ok(())
            } else {
                Err(CheckpointError::Mismatch {
                    field,
                    expected: expected.to_string(),
                    found: found.to_string(),
                })
            }
        }
        check("scenario", &self.scenario, &current.scenario)?;
        check("seed", self.seed, current.seed)?;
        check("torrents", self.torrents, current.torrents)?;
        check("duration_secs", self.duration_secs, current.duration_secs)?;
        check("fault_profile", &self.fault_profile, &current.fault_profile)?;
        check("has_usernames", self.has_usernames, current.has_usernames)?;
        check("single_query", self.single_query, current.single_query)?;
        check("top_k", self.top_k, current.top_k)?;
        check("horizon_cap_secs", self.horizon_cap_secs, current.horizon_cap_secs)?;
        check("sketch_budget", self.sketch_budget, current.sketch_budget)?;
        Ok(())
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> CheckpointError + '_ {
    move |source| CheckpointError::Io { path: path.to_path_buf(), source }
}

/// Atomically writes `<dir>/checkpoint.ckpt` holding `header` + `payload`.
///
/// Crash-ordered: temp write → temp fsync → rename → directory fsync. The
/// named crash points let the test sweep abort at each of those stages and
/// prove resume still works.
pub fn save(dir: &Path, header: &CheckpointHeader, payload: &[u8]) -> Result<(), CheckpointError> {
    btpub_faults::crash_point("checkpoint.write.begin");
    let mut enc = Enc::new();
    enc.buf.extend_from_slice(CHECKPOINT_MAGIC);
    enc.u32(CHECKPOINT_VERSION);
    header.encode(&mut enc);
    enc.bytes(payload);
    let body = enc.into_bytes();
    let crc = crc32(&body);

    let final_path = dir.join(CHECKPOINT_FILE);
    let tmp_path = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let mut f = File::create(&tmp_path).map_err(io_err(&tmp_path))?;
    // Write in two halves with a crash point between them so the sweep
    // exercises a genuinely torn temp file.
    let mid = body.len() / 2;
    f.write_all(&body[..mid]).map_err(io_err(&tmp_path))?;
    btpub_faults::crash_point("checkpoint.mid_write");
    f.write_all(&body[mid..]).map_err(io_err(&tmp_path))?;
    f.write_all(&crc.to_le_bytes()).map_err(io_err(&tmp_path))?;
    f.sync_all().map_err(io_err(&tmp_path))?;
    drop(f);
    btpub_faults::crash_point("checkpoint.pre_rename");
    fs::rename(&tmp_path, &final_path).map_err(io_err(&final_path))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    btpub_obs::counter("stream.checkpoint.writes").add(1);
    btpub_obs::counter("stream.checkpoint.bytes").add(body.len() as u64 + 4);
    btpub_faults::crash_point("checkpoint.write.end");
    Ok(())
}

/// Reads and CRC-verifies `<dir>/checkpoint.ckpt`.
///
/// `Ok(None)` when no checkpoint exists (a fresh start); a checkpoint that
/// exists but fails its magic, version, or CRC is a hard error — the
/// caller must refuse to run rather than silently start over, so that data
/// decay is always surfaced (`corrupted_checkpoint_is_refused` in
/// `crates/bench/tests/crash_resume.rs` depends on this).
pub fn load(dir: &Path) -> Result<Option<(CheckpointHeader, Vec<u8>)>, CheckpointError> {
    let path = dir.join(CHECKPOINT_FILE);
    let raw = match fs::read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io { path, source: e }),
    };
    let (header, payload, _) = parse(&path, &raw)?;
    Ok(Some((header, payload)))
}

/// Reads just the CRC-verified header of an existing checkpoint (e.g. to
/// learn `records_folded` before deciding how to resume side outputs).
pub fn read_header(dir: &Path) -> Result<Option<CheckpointHeader>, CheckpointError> {
    Ok(load(dir)?.map(|(h, _)| h))
}

fn parse(
    path: &Path,
    raw: &[u8],
) -> Result<(CheckpointHeader, Vec<u8>, u32), CheckpointError> {
    if raw.len() < CHECKPOINT_MAGIC.len() + 8 || &raw[..8] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic { path: path.to_path_buf() });
    }
    let body = &raw[..raw.len() - 4];
    let stored = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            expected: stored,
            found: computed,
        });
    }
    let mut dec = Dec::new(&body[8..]);
    let version = dec.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version {
            path: path.to_path_buf(),
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let header = CheckpointHeader::decode(&mut dec)?;
    let payload = dec.bytes()?;
    Ok((header, payload, stored))
}

/// Removes the live checkpoint (called after a campaign completes, so a
/// later run of the same scenario starts fresh instead of fast-forwarding
/// past the end).
pub fn clear(dir: &Path) {
    let _ = fs::remove_file(dir.join(CHECKPOINT_FILE));
    let _ = fs::remove_file(dir.join(format!("{CHECKPOINT_FILE}.tmp")));
}

/// Probes `dir` for writability, mirroring the spill-dir fallback: on
/// failure warns once and returns `false`, and the caller runs
/// checkpoint-free rather than dying.
pub fn probe_dir(dir: &Path) -> bool {
    let probe = || -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let probe = dir.join(".btpub-ckpt-probe");
        fs::write(&probe, b"ok")?;
        fs::remove_file(&probe)?;
        Ok(())
    };
    match probe() {
        Ok(()) => true,
        Err(e) => {
            warn_once(
                &format!("stream.checkpoint.unwritable:{}", dir.display()),
                &format!(
                    "checkpoint directory {:?} is not writable ({e}); accepted forms: an \
                     existing writable directory or a creatable path — falling back to \
                     running checkpoint-free",
                    dir.display().to_string()
                ),
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("btpub-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            scenario: "pb10".into(),
            seed: 0x2010_0406,
            torrents: 384,
            duration_secs: 30 * 86_400,
            fault_profile: "clean".into(),
            has_usernames: true,
            single_query: false,
            top_k: 100,
            horizon_cap_secs: u64::MAX,
            sketch_budget: 4096,
            records_folded: 17,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xcbf4_3926);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let payload = b"aggregate state bytes".to_vec();
        save(&dir, &header(), &payload).unwrap();
        let (h, p) = load(&dir).unwrap().unwrap();
        assert_eq!(h, header());
        assert_eq!(p, payload);
        assert_eq!(read_header(&dir).unwrap().unwrap().records_folded, 17);
        clear(&dir);
        assert!(load(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_flipped_byte_is_refused() {
        let dir = tmpdir("flip");
        save(&dir, &header(), b"payload-under-test").unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut raw = fs::read(&path).unwrap();
        // Flip one bit in the middle of the payload region.
        let i = raw.len() / 2;
        raw[i] ^= 0x01;
        fs::write(&path, &raw).unwrap();
        match load(&dir) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_refused() {
        let dir = tmpdir("trunc");
        save(&dir, &header(), b"payload-under-test").unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 7]).unwrap();
        assert!(matches!(load(&dir), Err(CheckpointError::Corrupt { .. })));
        // Cut into the magic itself → BadMagic.
        fs::write(&path, &raw[..4]).unwrap();
        assert!(matches!(load(&dir), Err(CheckpointError::BadMagic { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatches_are_named() {
        let a = header();
        let mut b = header();
        b.seed = 99;
        match a.ensure_matches(&b) {
            Err(CheckpointError::Mismatch { field: "seed", .. }) => {}
            other => panic!("expected seed mismatch, got {other:?}"),
        }
        let mut c = header();
        c.scenario = "mn08".into();
        match a.ensure_matches(&c) {
            Err(CheckpointError::Mismatch { field: "scenario", .. }) => {}
            other => panic!("expected scenario mismatch, got {other:?}"),
        }
        // Progress differences are not identity differences.
        let mut d = header();
        d.records_folded = 1000;
        a.ensure_matches(&d).unwrap();
    }

    #[test]
    fn enc_dec_roundtrip_all_types() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX);
        e.usize(12345);
        e.f64(-2.75);
        e.bool(true);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap(), -2.75);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert!(d.is_empty());
        assert!(matches!(d.u8(), Err(CheckpointError::Decode { .. })));
    }

    #[test]
    fn unwritable_checkpoint_dir_probes_false() {
        assert!(!probe_dir(Path::new("/proc/btpub-no-such-ckpt")));
        let dir = tmpdir("probe");
        assert!(probe_dir(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }
}
