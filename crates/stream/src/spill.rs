//! Spill-to-disk columnar segments and an external distinct counter.
//!
//! Segments are plain `std::fs` files: an 8-byte magic, then length- and
//! checksum-prefixed frames, then an end-of-segment trailer:
//!
//! ```text
//! segment := magic("BTPBSEG2") frame* trailer
//! frame   := key(u32 LE) len(u32 LE) crc32(payload)(u32 LE) payload
//! trailer := key(0xFFFF_FFFF) len(8) crc32 frame_count(u64 LE)
//! ```
//!
//! The key is caller-defined — typically an interned `Sym` index or a
//! run sequence number — so a segment doubles as a tiny columnar store
//! for fields that need a second pass without holding the whole campaign
//! in RAM. `key == u32::MAX` is reserved for the trailer.
//!
//! Every frame carries a CRC-32 of its payload and the trailer carries
//! the frame count, so a segment written by a process that died mid-write
//! is *detectably* torn: the reader surfaces a typed
//! [`SegmentError::TornFrame`] naming file and byte offset instead of
//! misparsing garbage lengths, and a flipped bit inside a payload is a
//! [`SegmentError::CorruptFrame`]. Readers that can tolerate losing the
//! tail (the distinct-counter merge below) treat a torn tail as
//! end-of-run; readers that cannot propagate the error.
//!
//! [`DistinctU32`] builds on segments to count distinct `u32` values
//! (the global distinct-IP count is the one campaign-sized set in the
//! reports): values accumulate in a fixed-capacity chunk; full chunks
//! are sorted, deduped, and spilled as one sorted run per segment; the
//! final count is a k-way merge over the runs. The count is exactly the
//! set cardinality, so the in-memory and spill paths are interchangeable
//! — which is what lets an unwritable spill dir fall back to in-memory
//! with a warning instead of a panic. Its full state (chunk + run
//! manifest with per-run checksums) round-trips through the checkpoint
//! encoder, which is what lets a killed campaign resume without
//! re-reading a single record.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use btpub_fxhash::FxHashSet;

use crate::checkpoint::{CheckpointError, Crc32, Dec, Enc};
use crate::warn_once;

/// On-disk magic for a v2 segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"BTPBSEG2";
/// Reserved frame key marking the end-of-segment trailer.
pub const TRAILER_KEY: u32 = u32::MAX;

/// Why a segment could not be written or read back.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying filesystem failure.
    Io { path: PathBuf, source: std::io::Error },
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic { path: PathBuf },
    /// The file ends mid-frame (or before any trailer): a torn write
    /// from a dying process, or a frame header whose length field claims
    /// more bytes than the file holds. `offset` is where the torn frame
    /// begins.
    TornFrame { path: PathBuf, offset: u64 },
    /// A frame's payload fails its CRC-32. `offset` is where the frame
    /// begins.
    CorruptFrame { path: PathBuf, offset: u64 },
    /// The trailer's frame count disagrees with the frames read.
    TrailerMismatch { path: PathBuf, expected: u64, found: u64 },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "segment io error at {path:?}: {source}"),
            Self::BadMagic { path } => write!(f, "segment {path:?}: bad magic"),
            Self::TornFrame { path, offset } => {
                write!(f, "segment {path:?}: torn frame at byte {offset}")
            }
            Self::CorruptFrame { path, offset } => {
                write!(f, "segment {path:?}: corrupt frame (crc mismatch) at byte {offset}")
            }
            Self::TrailerMismatch { path, expected, found } => write!(
                f,
                "segment {path:?}: trailer says {expected} frames, read {found}"
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl SegmentError {
    fn io(path: &Path) -> impl FnOnce(std::io::Error) -> SegmentError + '_ {
        move |source| SegmentError::Io { path: path.to_path_buf(), source }
    }
}

/// Writer for one checksummed segment file.
pub struct SegmentWriter {
    out: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
    frames: u64,
    crc: Crc32,
}

/// What [`SegmentWriter::finish`] hands back: enough to manifest the file
/// in a checkpoint and verify it on resume.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    pub path: PathBuf,
    pub frames: u64,
    /// Total file size in bytes (magic + frames + trailer).
    pub bytes: u64,
    /// CRC-32 of the whole file.
    pub crc: u32,
}

impl SegmentWriter {
    /// Create `<dir>/<name>.seg`, truncating any previous file.
    pub fn create(dir: &Path, name: &str) -> Result<Self, SegmentError> {
        let path = dir.join(format!("{name}.seg"));
        let file = File::create(&path).map_err(SegmentError::io(&path))?;
        let mut w = Self {
            out: BufWriter::new(file),
            path,
            bytes: 0,
            frames: 0,
            crc: Crc32::new(),
        };
        w.emit(SEGMENT_MAGIC)?;
        Ok(w)
    }

    fn emit(&mut self, data: &[u8]) -> Result<(), SegmentError> {
        self.out.write_all(data).map_err(SegmentError::io(&self.path))?;
        self.crc.update(data);
        self.bytes += data.len() as u64;
        Ok(())
    }

    fn emit_frame(&mut self, key: u32, payload: &[u8]) -> Result<(), SegmentError> {
        let len = u32::try_from(payload.len()).map_err(|_| SegmentError::Io {
            path: self.path.clone(),
            source: std::io::Error::other("frame payload over u32::MAX bytes"),
        })?;
        self.emit(&key.to_le_bytes())?;
        self.emit(&len.to_le_bytes())?;
        self.emit(&crate::checkpoint::crc32(payload).to_le_bytes())?;
        self.emit(payload)
    }

    /// Append one `key`-tagged frame. `key == u32::MAX` is reserved for
    /// the trailer and rejected.
    pub fn write_frame(&mut self, key: u32, payload: &[u8]) -> Result<(), SegmentError> {
        assert_ne!(key, TRAILER_KEY, "frame key u32::MAX is reserved for the trailer");
        self.emit_frame(key, payload)?;
        self.frames += 1;
        Ok(())
    }

    /// Write the trailer, flush, and fsync. Returns the segment's
    /// manifest entry. Without the fsync a "finished" run could still be
    /// torn by a crash — and the checkpoint that names it would then lie.
    pub fn finish(mut self) -> Result<SegmentMeta, SegmentError> {
        let count = self.frames;
        self.emit_frame(TRAILER_KEY, &count.to_le_bytes())?;
        self.out.flush().map_err(SegmentError::io(&self.path))?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(SegmentError::io(&self.path))?;
        btpub_obs::counter("stream.spill.segments").add(1);
        btpub_obs::counter("stream.spill.bytes").add(self.bytes);
        Ok(SegmentMeta {
            path: self.path,
            frames: self.frames,
            bytes: self.bytes,
            crc: self.crc.finish(),
        })
    }
}

/// Reader over one segment file's frames, in write order.
pub struct SegmentReader {
    input: BufReader<File>,
    path: PathBuf,
    /// File size at open; no frame may claim bytes past it.
    file_len: u64,
    offset: u64,
    frames_read: u64,
    finished: bool,
}

impl SegmentReader {
    /// Open a segment, verifying its magic.
    pub fn open(path: &Path) -> Result<Self, SegmentError> {
        let file = File::open(path).map_err(SegmentError::io(path))?;
        let file_len = file.metadata().map_err(SegmentError::io(path))?.len();
        let mut r = Self {
            input: BufReader::new(file),
            path: path.to_path_buf(),
            file_len,
            offset: 0,
            frames_read: 0,
            finished: false,
        };
        let mut magic = [0u8; 8];
        match r.input.read_exact(&mut magic) {
            Ok(()) if &magic == SEGMENT_MAGIC => {}
            Ok(()) => return Err(SegmentError::BadMagic { path: path.to_path_buf() }),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(SegmentError::BadMagic { path: path.to_path_buf() })
            }
            Err(e) => return Err(SegmentError::Io { path: path.to_path_buf(), source: e }),
        }
        r.offset = 8;
        Ok(r)
    }

    /// Read the next `(key, payload)` frame.
    ///
    /// `Ok(None)` only after a CRC-valid trailer whose frame count
    /// matches. A file that simply stops — mid-frame *or* at a frame
    /// boundary without a trailer — is [`SegmentError::TornFrame`]: in
    /// this format, absence of a trailer is evidence of a death
    /// mid-write, not a clean end. The length field is checked against
    /// the bytes the file has left before anything is allocated, so a
    /// flipped length byte is a `TornFrame`, never a 4 GiB buffer.
    pub fn next_frame(&mut self) -> Result<Option<(u32, Vec<u8>)>, SegmentError> {
        if self.finished {
            return Ok(None);
        }
        let frame_start = self.offset;
        let torn = || SegmentError::TornFrame { path: self.path.clone(), offset: frame_start };
        let mut header = [0u8; 12];
        let mut got = 0;
        while got < header.len() {
            match self.input.read(&mut header[got..]) {
                Ok(0) => return Err(torn()),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SegmentError::Io { path: self.path.clone(), source: e }),
            }
        }
        let key = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if len as u64 > self.file_len.saturating_sub(frame_start + 12) {
            return Err(torn());
        }
        let mut payload = vec![0u8; len];
        match self.input.read_exact(&mut payload) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(torn()),
            Err(e) => return Err(SegmentError::Io { path: self.path.clone(), source: e }),
        }
        self.offset = frame_start + 12 + len as u64;
        if crate::checkpoint::crc32(&payload) != stored_crc {
            return Err(SegmentError::CorruptFrame { path: self.path.clone(), offset: frame_start });
        }
        if key == TRAILER_KEY {
            if payload.len() != 8 {
                return Err(SegmentError::CorruptFrame {
                    path: self.path.clone(),
                    offset: frame_start,
                });
            }
            let expected = u64::from_le_bytes(payload.as_slice().try_into().unwrap());
            if expected != self.frames_read {
                return Err(SegmentError::TrailerMismatch {
                    path: self.path.clone(),
                    expected,
                    found: self.frames_read,
                });
            }
            self.finished = true;
            return Ok(None);
        }
        self.frames_read += 1;
        Ok(Some((key, payload)))
    }
}

/// How many `u32`s a [`DistinctU32`] holds in RAM before spilling a run.
pub const DEFAULT_CHUNK_VALUES: usize = 1 << 20;

/// One spilled run as named in a checkpoint manifest.
#[derive(Debug, Clone)]
struct RunMeta {
    path: PathBuf,
    bytes: u64,
    crc: u32,
}

enum Backend {
    Memory(FxHashSet<u32>),
    Spill {
        dir: PathBuf,
        chunk: Vec<u32>,
        chunk_cap: usize,
        runs: Vec<RunMeta>,
    },
}

/// Counts distinct `u32` values with bounded memory.
///
/// With no spill directory (or an unwritable one — warned once, never a
/// panic) this is a plain in-memory hash set. With a writable directory
/// it keeps at most `chunk_cap` values in RAM and spills sorted runs to
/// segment files, merging at [`DistinctU32::finish`]. Both backends
/// return exactly the set cardinality.
pub struct DistinctU32 {
    backend: Backend,
}

impl DistinctU32 {
    pub fn in_memory() -> Self {
        Self { backend: Backend::Memory(FxHashSet::default()) }
    }

    /// Spill-backed counter under `dir` (created if missing), falling
    /// back to in-memory with a one-shot warning if the directory cannot
    /// be created or written.
    pub fn with_spill_dir(dir: &Path, chunk_cap: usize) -> Self {
        match Self::probe_dir(dir) {
            Ok(()) => Self {
                backend: Backend::Spill {
                    dir: dir.to_path_buf(),
                    chunk: Vec::new(),
                    chunk_cap: chunk_cap.max(1024),
                    runs: Vec::new(),
                },
            },
            Err(e) => {
                warn_once(
                    &format!("stream.spill.unwritable:{}", dir.display()),
                    &format!(
                        "spill directory {:?} is not writable ({e}); accepted forms: an \
                         existing writable directory or a creatable path — falling back \
                         to in-memory aggregation",
                        dir.display().to_string()
                    ),
                );
                Self::in_memory()
            }
        }
    }

    fn probe_dir(dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let probe = dir.join(".btpub-spill-probe");
        fs::write(&probe, b"ok")?;
        fs::remove_file(&probe)?;
        Ok(())
    }

    /// Insert a batch of values (duplicates welcome).
    pub fn insert_all(&mut self, values: &[u32]) {
        match &mut self.backend {
            Backend::Memory(set) => set.extend(values.iter().copied()),
            Backend::Spill { dir, chunk, chunk_cap, runs } => {
                for &v in values {
                    chunk.push(v);
                    if chunk.len() >= *chunk_cap {
                        Self::flush_run(dir, chunk, runs);
                    }
                }
            }
        }
    }

    fn flush_run(dir: &Path, chunk: &mut Vec<u32>, runs: &mut Vec<RunMeta>) {
        chunk.sort_unstable();
        chunk.dedup();
        let name = format!("distinct-run-{:05}", runs.len());
        // A failed spill write falls back to keeping the run in memory
        // for the final merge rather than losing data; the warn_once
        // makes the degradation visible exactly once.
        let write = || -> Result<SegmentMeta, SegmentError> {
            let mut w = SegmentWriter::create(dir, &name)?;
            for block in chunk.chunks(1 << 14) {
                btpub_faults::crash_point("spill.flush.frame");
                let mut payload = Vec::with_capacity(block.len() * 4);
                for v in block {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                w.write_frame(runs.len() as u32, &payload)?;
            }
            btpub_faults::crash_point("spill.flush.finish");
            w.finish()
        };
        match write() {
            Ok(meta) => {
                runs.push(RunMeta { path: meta.path, bytes: meta.bytes, crc: meta.crc });
                chunk.clear();
            }
            Err(e) => {
                warn_once(
                    &format!("stream.spill.write_failed:{}", dir.display()),
                    &format!(
                        "spill write under {:?} failed ({e}); keeping run in memory",
                        dir.display().to_string()
                    ),
                );
                // Keep the (sorted, deduped) chunk and let it grow.
            }
        }
    }

    /// Number of distinct values seen. Consumes the counter; spill runs
    /// are removed from disk after merging.
    pub fn finish(self) -> u64 {
        match self.backend {
            Backend::Memory(set) => set.len() as u64,
            Backend::Spill { chunk, runs, .. } => {
                let mut last = chunk;
                last.sort_unstable();
                last.dedup();
                let mut cursors: Vec<RunCursor> = Vec::with_capacity(runs.len() + 1);
                for run in &runs {
                    match RunCursor::open(&run.path) {
                        Ok(c) => cursors.push(c),
                        Err(e) => {
                            // A run we wrote but cannot read back would
                            // undercount; surface loudly.
                            btpub_obs::error!("spill run {:?} unreadable: {e}", run.path);
                        }
                    }
                }
                cursors.push(RunCursor::from_vec(last));
                let count = merge_count(cursors);
                for run in runs {
                    let _ = fs::remove_file(run.path);
                }
                count
            }
        }
    }

    /// Serializes the full counter state: either the materialized value
    /// set (memory backend) or the live chunk plus the manifest of
    /// spilled runs — name, byte size, and whole-file CRC each — so a
    /// resume can verify every run it is about to trust.
    pub fn encode_state(&self, enc: &mut Enc) {
        match &self.backend {
            Backend::Memory(set) => {
                enc.u8(0);
                let mut values: Vec<u32> = set.iter().copied().collect();
                values.sort_unstable();
                enc.usize(values.len());
                for v in values {
                    enc.u32(v);
                }
            }
            Backend::Spill { chunk, runs, .. } => {
                enc.u8(1);
                enc.usize(chunk.len());
                for &v in chunk {
                    enc.u32(v);
                }
                enc.usize(runs.len());
                for run in runs {
                    let name = run
                        .path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    enc.str(&name);
                    enc.u64(run.bytes);
                    enc.u32(run.crc);
                }
            }
        }
    }

    /// Restores a counter from [`Self::encode_state`] bytes.
    ///
    /// A memory snapshot restores into whichever backend the current run
    /// configures (the count is backend-independent). A spill snapshot
    /// *requires* a spill dir: each manifested run is re-verified by size
    /// and whole-file CRC (missing → [`CheckpointError::SpillRunMissing`],
    /// damaged → [`CheckpointError::SpillRunCorrupt`]), a run file longer
    /// than its manifested size is truncated back (a crash can append,
    /// never rewrite), and any `distinct-run-*.seg` not in the manifest —
    /// flushed after the checkpoint was cut — is deleted so the replayed
    /// inserts recreate it identically.
    pub fn decode_state(
        dec: &mut Dec,
        spill: Option<(&Path, usize)>,
    ) -> Result<Self, CheckpointError> {
        match dec.u8()? {
            0 => {
                let n = dec.usize()?;
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    values.push(dec.u32()?);
                }
                let mut d = match spill {
                    Some((dir, cap)) => Self::with_spill_dir(dir, cap),
                    None => Self::in_memory(),
                };
                d.insert_all(&values);
                Ok(d)
            }
            1 => {
                let n = dec.usize()?;
                let mut chunk = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    chunk.push(dec.u32()?);
                }
                let n_runs = dec.usize()?;
                let mut manifest = Vec::with_capacity(n_runs);
                for _ in 0..n_runs {
                    let name = dec.str()?;
                    let bytes = dec.u64()?;
                    let crc = dec.u32()?;
                    manifest.push((name, bytes, crc));
                }
                let Some((dir, chunk_cap)) = spill else {
                    return Err(CheckpointError::SpillUnavailable);
                };
                Self::probe_dir(dir).map_err(|source| CheckpointError::Io {
                    path: dir.to_path_buf(),
                    source,
                })?;
                let mut runs = Vec::with_capacity(manifest.len());
                for (name, bytes, crc) in &manifest {
                    let path = dir.join(name);
                    runs.push(verify_run(&path, *bytes, *crc)?);
                }
                remove_unmanifested_runs(dir, &manifest);
                Ok(Self {
                    backend: Backend::Spill {
                        dir: dir.to_path_buf(),
                        chunk,
                        chunk_cap: chunk_cap.max(1024),
                        runs,
                    },
                })
            }
            _ => Err(CheckpointError::Decode { what: "DistinctU32 backend tag" }),
        }
    }
}

/// Verifies one manifested run file by size and whole-file CRC,
/// truncating a post-crash over-long tail back to the manifested length.
fn verify_run(path: &Path, bytes: u64, crc: u32) -> Result<RunMeta, CheckpointError> {
    let meta = match fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::SpillRunMissing { path: path.to_path_buf() })
        }
        Err(e) => return Err(CheckpointError::Io { path: path.to_path_buf(), source: e }),
    };
    if meta.len() < bytes {
        return Err(CheckpointError::SpillRunCorrupt {
            path: path.to_path_buf(),
            detail: format!("truncated: {} of {bytes} bytes", meta.len()),
        });
    }
    if meta.len() > bytes {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|source| CheckpointError::Io { path: path.to_path_buf(), source })?;
        f.set_len(bytes)
            .map_err(|source| CheckpointError::Io { path: path.to_path_buf(), source })?;
        f.sync_all()
            .map_err(|source| CheckpointError::Io { path: path.to_path_buf(), source })?;
    }
    let raw = fs::read(path)
        .map_err(|source| CheckpointError::Io { path: path.to_path_buf(), source })?;
    let found = crate::checkpoint::crc32(&raw);
    if found != crc {
        return Err(CheckpointError::SpillRunCorrupt {
            path: path.to_path_buf(),
            detail: format!("crc mismatch (manifest {crc:#010x}, file {found:#010x})"),
        });
    }
    Ok(RunMeta { path: path.to_path_buf(), bytes, crc })
}

/// Deletes `distinct-run-*.seg` files under `dir` that the manifest does
/// not name: runs flushed after the checkpoint was cut, which the
/// replayed fold will recreate byte-for-byte.
fn remove_unmanifested_runs(dir: &Path, manifest: &[(String, u64, u32)]) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("distinct-run-")
            && name.ends_with(".seg")
            && !manifest.iter().any(|(m, _, _)| *m == name)
        {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Streaming cursor over one sorted run (on disk or in memory).
struct RunCursor {
    reader: Option<SegmentReader>,
    buf: Vec<u32>,
    pos: usize,
}

impl RunCursor {
    fn open(path: &Path) -> Result<Self, SegmentError> {
        let mut c = Self { reader: Some(SegmentReader::open(path)?), buf: Vec::new(), pos: 0 };
        c.refill();
        Ok(c)
    }

    fn from_vec(values: Vec<u32>) -> Self {
        Self { reader: None, buf: values, pos: 0 }
    }

    /// Pulls the next frame into the buffer. A torn tail ends the run —
    /// every value before the tear is intact (each prior frame passed its
    /// own CRC), so the merge proceeds with what provably landed on disk.
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let Some(reader) = &mut self.reader else { return };
        match reader.next_frame() {
            Ok(Some((_, payload))) => {
                self.buf.reserve(payload.len() / 4);
                for bytes in payload.chunks_exact(4) {
                    self.buf.push(u32::from_le_bytes(bytes.try_into().unwrap()));
                }
            }
            Ok(None) => {}
            Err(SegmentError::TornFrame { path, offset }) => {
                warn_once(
                    &format!("stream.spill.torn:{}", path.display()),
                    &format!(
                        "spill run {path:?} torn at byte {offset} (process died mid-write); \
                         treating as end-of-run"
                    ),
                );
                self.reader = None;
            }
            Err(e) => {
                btpub_obs::error!("spill run read error mid-merge: {e}");
                self.reader = None;
            }
        }
    }

    fn peek(&self) -> Option<u32> {
        self.buf.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
        if self.pos >= self.buf.len() && self.reader.is_some() {
            self.refill();
        }
    }
}

fn merge_count(mut cursors: Vec<RunCursor>) -> u64 {
    let mut count = 0u64;
    let mut last: Option<u32> = None;
    loop {
        let mut min: Option<u32> = None;
        for c in &cursors {
            if let Some(v) = c.peek() {
                min = Some(min.map_or(v, |m: u32| m.min(v)));
            }
        }
        let Some(v) = min else { break };
        if last != Some(v) {
            count += 1;
            last = Some(v);
        }
        for c in &mut cursors {
            while c.peek() == Some(v) {
                c.advance();
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btpub-stream-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn segment_roundtrip_preserves_frames() {
        let dir = tmpdir("seg");
        fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, "t").unwrap();
        w.write_frame(7, b"hello").unwrap();
        w.write_frame(9, b"").unwrap();
        w.write_frame(123, &[1, 2, 3]).unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.frames, 3);
        // magic + 4 frames (3 data + trailer) of 12-byte headers + payloads.
        assert_eq!(meta.bytes, 8 + 12 * 4 + 5 + 3 + 8);
        assert_eq!(meta.crc, crate::checkpoint::crc32(&fs::read(&meta.path).unwrap()));
        let mut r = SegmentReader::open(&meta.path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some((7, b"hello".to_vec())));
        assert_eq!(r.next_frame().unwrap(), Some((9, Vec::new())));
        assert_eq!(r.next_frame().unwrap(), Some((123, vec![1, 2, 3])));
        assert!(r.next_frame().unwrap().is_none());
        assert!(r.next_frame().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_a_typed_error() {
        let dir = tmpdir("torn");
        fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, "t").unwrap();
        w.write_frame(1, b"first").unwrap();
        w.write_frame(2, b"second-gets-torn").unwrap();
        let meta = w.finish().unwrap();
        let raw = fs::read(&meta.path).unwrap();
        // Cut mid-way through the second frame's payload.
        let cut = 8 + 12 + 5 + 12 + 4;
        fs::write(&meta.path, &raw[..cut]).unwrap();
        let mut r = SegmentReader::open(&meta.path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some((1, b"first".to_vec())));
        match r.next_frame() {
            Err(SegmentError::TornFrame { offset, .. }) => assert_eq!(offset, 8 + 12 + 5),
            other => panic!("expected TornFrame, got {other:?}"),
        }
        // A file that ends cleanly at a frame boundary but has no trailer
        // is torn too.
        fs::write(&meta.path, &raw[..8 + 12 + 5]).unwrap();
        let mut r = SegmentReader::open(&meta.path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some((1, b"first".to_vec())));
        assert!(matches!(r.next_frame(), Err(SegmentError::TornFrame { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_is_corrupt_frame() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, "t").unwrap();
        w.write_frame(1, b"payload-under-test").unwrap();
        let meta = w.finish().unwrap();
        let mut raw = fs::read(&meta.path).unwrap();
        raw[8 + 12 + 3] ^= 0x40; // one bit inside the payload
        fs::write(&meta.path, &raw).unwrap();
        let mut r = SegmentReader::open(&meta.path).unwrap();
        match r.next_frame() {
            Err(SegmentError::CorruptFrame { offset, .. }) => assert_eq!(offset, 8),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_refused() {
        let dir = tmpdir("magic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.seg");
        fs::write(&path, b"NOTASEG!rest").unwrap();
        assert!(matches!(SegmentReader::open(&path), Err(SegmentError::BadMagic { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_distinct_matches_in_memory() {
        let dir = tmpdir("distinct");
        let mut spill = DistinctU32::with_spill_dir(&dir, 0); // cap clamps to 1024
        let mut mem = DistinctU32::in_memory();
        // Adversarial-ish: dense duplicates, reverse order, cross-chunk repeats.
        let mut vals = Vec::new();
        for round in 0..5u32 {
            for v in (0..3000u32).rev() {
                vals.push(v % (500 + round * 700));
            }
        }
        spill.insert_all(&vals);
        mem.insert_all(&vals);
        assert_eq!(spill.finish(), mem.finish());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_spill_run_ends_merge_early_not_fatally(){
        let dir = tmpdir("tornrun");
        let mut spill = DistinctU32::with_spill_dir(&dir, 0); // cap clamps to 1024
        let vals: Vec<u32> = (0..2048).collect();
        spill.insert_all(&vals);
        // Two runs on disk now; tear the first one mid-payload.
        let run0 = dir.join("distinct-run-00000.seg");
        let raw = fs::read(&run0).unwrap();
        fs::write(&run0, &raw[..8 + 12 + 2048]).unwrap();
        // The count drops (torn run lost) but finish() neither panics nor
        // miscounts what remains: the second, intact run still counts.
        let n = spill.finish();
        assert_eq!(n, 1024, "expected only the intact run's values");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_state_roundtrips_through_checkpoint_encoder() {
        let dir = tmpdir("ckptstate");
        let mut spill = DistinctU32::with_spill_dir(&dir, 0);
        let vals: Vec<u32> = (0..3000).map(|v| v % 1700).collect();
        spill.insert_all(&vals);
        let mut enc = Enc::new();
        spill.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        // Restoring must see the same runs and chunk → same final count.
        let restored =
            DistinctU32::decode_state(&mut Dec::new(&bytes), Some((&dir, 0))).unwrap();
        assert_eq!(restored.finish(), 1700);
        drop(spill); // runs already consumed by restored.finish()

        // Memory snapshot restores without a dir.
        let mut mem = DistinctU32::in_memory();
        mem.insert_all(&[5, 6, 6, 7]);
        let mut enc = Enc::new();
        mem.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let restored = DistinctU32::decode_state(&mut Dec::new(&bytes), None).unwrap();
        assert_eq!(restored.finish(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_snapshot_without_dir_is_refused_and_corrupt_run_detected() {
        let dir = tmpdir("ckptrefuse");
        let mut spill = DistinctU32::with_spill_dir(&dir, 0);
        spill.insert_all(&(0..2048).collect::<Vec<u32>>());
        let mut enc = Enc::new();
        spill.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        assert!(matches!(
            DistinctU32::decode_state(&mut Dec::new(&bytes), None),
            Err(CheckpointError::SpillUnavailable)
        ));
        // Flip one byte inside a manifested run → SpillRunCorrupt.
        let run0 = dir.join("distinct-run-00000.seg");
        let mut raw = fs::read(&run0).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        fs::write(&run0, &raw).unwrap();
        assert!(matches!(
            DistinctU32::decode_state(&mut Dec::new(&bytes), Some((&dir, 0))),
            Err(CheckpointError::SpillRunCorrupt { .. })
        ));
        // Remove it entirely → SpillRunMissing.
        fs::remove_file(&run0).unwrap();
        assert!(matches!(
            DistinctU32::decode_state(&mut Dec::new(&bytes), Some((&dir, 0))),
            Err(CheckpointError::SpillRunMissing { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_spill_dir_falls_back_to_memory() {
        // /proc is not writable in any environment we run in.
        let mut d = DistinctU32::with_spill_dir(Path::new("/proc/btpub-no-such"), 4096);
        d.insert_all(&[1, 2, 2, 3]);
        assert_eq!(d.finish(), 3);
    }
}
