//! A production-cheap flight recorder: per-thread bounded ring buffers
//! of compact events, drained at run end (or on demand) into Chrome
//! trace event format JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! ## The two contracts
//!
//! * **Off = one relaxed atomic load per event site.** The recorder is
//!   always compiled in but runtime-gated by [`enabled`], which in the
//!   steady state is a single `Relaxed` load of an `AtomicU8` plus a
//!   compare. No timestamp is taken, no lock touched, no allocation
//!   made unless the recorder is on. The release-only test
//!   `tests/trace_overhead.rs` holds the armed cost to 5% per announce.
//! * **On must not move a single report byte.** Events go *only* into
//!   the per-thread rings here; while recording, the recorder never
//!   creates or bumps a [`crate::Registry`] metric, and the drained
//!   output goes to a trace file (`--trace out.json`) or stderr, never
//!   stdout. (Drop accounting *is* surfaced as `trace.*` counters — but
//!   only at [`drain`] time, after the run's report is rendered, and
//!   the manifest digest excludes the `trace.` prefix.) Golden-report
//!   fixtures enforce trace-on ≡ trace-off byte-for-byte, sampled or
//!   not.
//!
//! ## Why armed is cheap
//!
//! The armed hot path used to cost a `clock_gettime` plus a mutex
//! round-trip per event (~32% on the announce lap). Three changes take
//! it to low single digits:
//!
//! * **Staged, batched writes.** Each thread stages events into a plain
//!   `Vec` it alone touches (an `UnsafeCell` owned by the registering
//!   thread) and flushes to its shared ring every `STAGE_FLUSH`
//!   events, so the ring mutex is paid once per batch, not per event.
//!   A thread-local destructor flushes the tail at thread exit.
//! * **Coarse batched clock.** Instants reuse a cached timestamp that
//!   is re-read from the monotonic clock only every `CLOCK_REFRESH`
//!   events (and at the start of each batch); span/complete events
//!   carry timestamps the caller already paid for (one subtraction from
//!   a [`crate::clock::now`] reading) and advance the cached clock for
//!   free.
//! * **Packed 16-byte ring slots.** Rings store events as a `u32`
//!   microsecond delta against a per-ring epoch (rebased if a ring ever
//!   spans more than ~71 minutes), a packed `sym`+kind word and the
//!   `u64` payload — 16 bytes instead of 24, decoded only at drain.
//!
//! ## Sampling and throttling
//!
//! `BTPUB_TRACE_SAMPLE` (or [`set_sample_spec`]) installs per-site
//! 1-in-N sampling and a per-thread events/sec cap. Draws are *pure
//! functions* of `(seed, site, per-site index)` via the same
//! [`mix`] construction the fault planner uses — no RNG state, so a
//! fixed `(seed, spec)` keeps the same global event set at any job
//! count, and sampling can never perturb the simulation it observes.
//!
//! ## The black box
//!
//! [`trip`] dumps the last `BLACKBOX_EVENTS` events per lane to a
//! side file when something goes wrong (a fault fires, a breaker
//! opens — wired from `btpub-faults`), bounded per process and
//! deduplicated per reason. [`install_panic_hook`] flushes the full
//! rings to the `--trace` path on panic so a crashing armed run still
//! yields a loadable trace.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use serde_json::{Map, Value};

/// Per-thread ring capacity in events (~256 KiB per thread at the
/// packed 16-byte slot size, and only for threads that actually
/// record).
pub const RING_CAPACITY: usize = 16 * 1024;

/// Staged events per thread before a batched flush into the shared
/// ring: the ring mutex is paid once per this many events. 4 KiB of
/// packed slots — L1-resident, and the most a drain can miss from
/// another thread's unflushed stage.
const STAGE_FLUSH: usize = 256;

/// Instant-path events between forced reads of the monotonic clock.
/// Complete events advance the cached clock for free, so spans keep it
/// honest even between refreshes.
const CLOCK_REFRESH: u32 = 32;

/// Widest timestamp range one ring epoch can represent
/// (`u32::MAX` microseconds ≈ 71.6 minutes); crossing it rebases the
/// ring, dropping events older than the window.
const RING_WINDOW_NS: u64 = (u32::MAX as u64) * 1000;

/// Events per lane included in a black-box [`trip`] dump.
const BLACKBOX_EVENTS: usize = 2048;

/// Black-box dumps per process — a fault storm must not turn the trip
/// path into an I/O storm.
const BLACKBOX_MAX: u32 = 16;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static ENV_INIT: OnceLock<()> = OnceLock::new();
static ENV_PATH: Mutex<Option<String>> = Mutex::new(None);

/// Recorder on — events are admitted.
const HOT_ON: u32 = 1;
/// A sampling table is installed — the hot path must consult [`keep`].
const HOT_SAMPLED: u32 = 2;
/// A `cap:` throttle is set — the hot path must consult [`cap_admits`].
const HOT_CAPPED: u32 = 4;
/// `BTPUB_TRACE` has been consulted (distinguishes "off" from "not
/// yet initialised", so the off path never re-checks the environment).
const HOT_INIT: u32 = 8;

/// The fused hot-path gate: one relaxed load tells a record site
/// everything it needs — off, plain-armed (the common production
/// state: no per-event sampling or throttle work at all), or armed
/// with sampling/cap features to consult. Derived state, recomputed by
/// [`recompute_hot`] whenever [`STATE`], [`SAMPLE_TABLE`] or
/// [`RATE_CAP`] change; a record racing a reconfiguration may use the
/// old gate for a few events, which is fine — specs change a handful
/// of times per process, never mid-measurement.
static HOT: AtomicU32 = AtomicU32::new(0);

fn recompute_hot() {
    let hot = match STATE.load(Ordering::Relaxed) {
        ON => {
            let mut h = HOT_INIT | HOT_ON;
            // While any circuit breaker is open (see push_full_rate),
            // the sampling and throttle bits stay out of the gate: the
            // spec remains installed but record sites skip it entirely,
            // so an incident is traced at full rate and closing the
            // last breaker restores the configured spec atomically.
            if FULL_RATE_DEPTH.load(Ordering::Relaxed) == 0 {
                if !SAMPLE_TABLE.load(Ordering::Acquire).is_null() {
                    h |= HOT_SAMPLED;
                }
                if RATE_CAP.load(Ordering::Relaxed) != 0 {
                    h |= HOT_CAPPED;
                }
            }
            h
        }
        OFF => HOT_INIT,
        _ => 0,
    };
    HOT.store(hot, Ordering::Release);
}

/// Whether the recorder is on. In the steady state this is one relaxed
/// atomic load plus a compare — the entire cost of a disabled event
/// site. The first call consults `BTPUB_TRACE` (see `init_from_env`).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Turns the recorder on or off explicitly (the `--trace` flag, tests).
/// Takes precedence over `BTPUB_TRACE` from then on. Also consults the
/// sampling/snapshot env knobs so a `--trace` run picks up
/// `BTPUB_TRACE_SAMPLE` / `BTPUB_TRACE_SNAPSHOT` without having to set
/// `BTPUB_TRACE` itself.
pub fn set_enabled(on: bool) {
    // Mark env as consulted so a later enabled() cannot flip the state
    // back from the environment.
    ENV_INIT.get_or_init(|| ());
    ensure_sample_env();
    ensure_snapshot_env();
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    recompute_hot();
}

/// The output path carried by `BTPUB_TRACE` when it was set to a path
/// (rather than a plain on/off token), e.g. `BTPUB_TRACE=out.json`.
pub fn env_path() -> Option<String> {
    enabled(); // ensure the env has been parsed
    ENV_PATH.lock().expect("trace path lock").clone()
}

/// Cold path of [`enabled`]: parses `BTPUB_TRACE` exactly once.
///
/// Accepted values: `1`/`on`/`true`/`yes` (on), `0`/`off`/`false`/`no`
/// or unset (off), or an output path — anything containing `/` or
/// ending in `.json` — which turns the recorder on and is retrievable
/// via [`env_path`]. Anything else earns a one-time stderr warning
/// naming the bad value and the accepted set, and leaves the recorder
/// off (mirroring the `BTPUB_LOG` treatment).
#[cold]
fn init_from_env() -> bool {
    ENV_INIT.get_or_init(|| {
        let on = match std::env::var("BTPUB_TRACE") {
            Err(_) => false,
            Ok(raw) => {
                let v = raw.trim().to_ascii_lowercase();
                match v.as_str() {
                    "" | "0" | "off" | "false" | "no" => false,
                    "1" | "on" | "true" | "yes" => true,
                    _ if raw.contains('/') || v.ends_with(".json") => {
                        *ENV_PATH.lock().expect("trace path lock") = Some(raw.trim().to_string());
                        true
                    }
                    _ => {
                        eprintln!(
                            "btpub-obs: unrecognized BTPUB_TRACE value {raw:?} \
                             (accepted: 1|on|true, 0|off|false, or an output path \
                             like out.json); tracing stays off"
                        );
                        false
                    }
                }
            }
        };
        if on {
            ensure_sample_env();
            ensure_snapshot_env();
        }
        STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
        recompute_hot();
    });
    STATE.load(Ordering::Relaxed) == ON
}

/// Nanoseconds since the process observability epoch (the same clock
/// the log-line prefix uses), read from the integer clock.
#[inline]
pub fn now_ns() -> u64 {
    crate::clock::to_epoch(crate::clock::now())
}

/// An interned event name: 4 bytes in the event, resolved back to the
/// string at drain time. Ids stay below 2^30 so a packed ring slot can
/// carry the kind in the top bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

static INTERNER: Mutex<Option<Interner>> = Mutex::new(None);

/// Interns `name`, returning its [`Sym`]. One hash lookup under a
/// mutex — hot sites cache the result per call site (see
/// [`trace_instant!`](crate::trace_instant)).
pub fn sym(name: &str) -> Sym {
    let mut guard = INTERNER.lock().expect("trace interner lock");
    let interner = guard.get_or_insert_with(Interner::default);
    if let Some(&id) = interner.index.get(name) {
        return Sym(id);
    }
    let id = u32::try_from(interner.names.len()).expect("trace symbol space exhausted");
    assert!(id < SYM_LIMIT, "trace symbol space exhausted");
    interner.names.push(name.to_string());
    interner.index.insert(name.to_string(), id);
    Sym(id)
}

fn current_symbols() -> Vec<String> {
    INTERNER
        .lock()
        .expect("trace interner lock")
        .as_ref()
        .map(|i| i.names.clone())
        .unwrap_or_default()
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span: `t_ns` is the start, `payload` the duration in ns
    /// (Chrome `"X"`).
    Complete,
    /// A point event — fault injection, breaker transition, blacklist
    /// strike, torrent birth/identify/lose, warn+ log (Chrome `"i"`).
    Instant,
    /// A counter-track sample: `payload` is the value (Chrome `"C"`).
    Counter,
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Nanoseconds since the observability epoch (span start for
    /// [`EventKind::Complete`]). Ring storage quantizes this to whole
    /// microseconds — Chrome trace resolution anyway.
    pub t_ns: u64,
    /// Duration (`Complete`), argument (`Instant`) or value (`Counter`).
    pub payload: u64,
    /// Interned name.
    pub sym: Sym,
    /// Event kind.
    pub kind: EventKind,
}

const SYM_LIMIT: u32 = 1 << 30;

/// The 16-byte stored form: a µs delta against the ring's epoch, the
/// symbol with the kind packed into the top two bits, and the payload.
#[derive(Debug, Clone, Copy)]
struct Packed {
    dt_us: u32,
    sym_kind: u32,
    payload: u64,
}

fn pack_sym_kind(sym: Sym, kind: EventKind) -> u32 {
    debug_assert!(sym.0 < SYM_LIMIT);
    sym.0
        | match kind {
            EventKind::Complete => 0,
            EventKind::Instant => 1 << 30,
            EventKind::Counter => 2 << 30,
        }
}

fn unpack_kind(sym_kind: u32) -> EventKind {
    match sym_kind >> 30 {
        0 => EventKind::Complete,
        1 => EventKind::Instant,
        _ => EventKind::Counter,
    }
}

/// A bounded event ring: grows lazily up to its capacity, then wraps,
/// overwriting the oldest event and counting the overwrite. Events are
/// stored packed (16 bytes) against a per-ring epoch and decoded on
/// the way out.
#[derive(Debug)]
pub struct RingBuf {
    buf: Vec<Packed>,
    capacity: usize,
    head: usize,
    dropped: u64,
    capped: u64,
    base_ns: u64,
    has_base: bool,
}

impl RingBuf {
    /// An empty ring that will hold at most `capacity` events. No
    /// memory is allocated until the first push.
    pub fn with_capacity(capacity: usize) -> Self {
        RingBuf {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            capped: 0,
            base_ns: 0,
            has_base: false,
        }
    }

    /// Appends an event, overwriting the oldest (and counting the drop)
    /// once the ring is full. The timestamp is stored as a µs delta
    /// against the ring epoch; an event more than ~71 minutes past the
    /// epoch rebases the ring (dropping anything older than the new
    /// window), and one before it moves the epoch back.
    pub fn push(&mut self, e: Event) {
        if !self.has_base {
            self.base_ns = e.t_ns;
            self.has_base = true;
        }
        if e.t_ns < self.base_ns {
            self.move_epoch_back(e.t_ns);
        }
        let mut dt_us = e.t_ns.saturating_sub(self.base_ns) / 1000;
        if dt_us > u64::from(u32::MAX) {
            self.rebase(e.t_ns);
            dt_us = e.t_ns.saturating_sub(self.base_ns) / 1000;
        }
        self.push_packed(Packed {
            dt_us: dt_us as u32,
            sym_kind: pack_sym_kind(e.sym, e.kind),
            payload: e.payload,
        });
    }

    #[inline]
    fn push_packed(&mut self, p: Packed) {
        if self.buf.len() < self.capacity {
            self.buf.push(p);
        } else {
            self.buf[self.head] = p;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Bulk intake of a staged batch already packed against
    /// `batch_base_ns` (its first event's timestamp): per event this is
    /// one shift-add plus a store, where [`push`] would re-derive the
    /// delta from nanoseconds. A batch epoch behind the ring's (a span
    /// that opened before the ring's first event) moves the epoch back;
    /// an event past the u32-µs window rebases the ring, as in [`push`].
    fn absorb(&mut self, batch_base_ns: u64, events: &[Packed]) {
        if events.is_empty() {
            return;
        }
        if !self.has_base {
            self.base_ns = batch_base_ns;
            self.has_base = true;
        }
        if batch_base_ns < self.base_ns {
            self.move_epoch_back(batch_base_ns);
        }
        let mut shift_us = batch_base_ns.saturating_sub(self.base_ns) / 1000;
        for p in events {
            let mut dt = shift_us + u64::from(p.dt_us);
            if dt > u64::from(u32::MAX) {
                self.rebase(batch_base_ns + u64::from(p.dt_us) * 1000);
                shift_us = batch_base_ns.saturating_sub(self.base_ns) / 1000;
                dt = (shift_us + u64::from(p.dt_us)).min(u64::from(u32::MAX));
            }
            self.push_packed(Packed {
                dt_us: dt as u32,
                sym_kind: p.sym_kind,
                payload: p.payload,
            });
        }
    }

    /// Moves the epoch back by whole microseconds to at most `t_ns`, so
    /// an event that precedes everything held keeps its time (to the
    /// µs) instead of clamping to the epoch. Held events shift by the
    /// same whole µs and decode unchanged. The epoch stops short where
    /// the newest held event would leave the u32-µs window; an earlier
    /// event then clamps to it.
    fn move_epoch_back(&mut self, t_ns: u64) {
        let newest_us = self.buf.iter().map(|p| p.dt_us).max().unwrap_or(0);
        let room_us = u64::from(u32::MAX - newest_us);
        let back_us = (self.base_ns - t_ns).div_ceil(1000).min(room_us);
        for p in &mut self.buf {
            p.dt_us += back_us as u32;
        }
        self.base_ns -= back_us * 1000;
    }

    /// Moves the epoch forward so `t_ns` fits in the u32-µs window,
    /// dropping (and counting) events that fall out of it.
    fn rebase(&mut self, t_ns: u64) {
        let events = self.decode_ordered();
        let min_keep = t_ns.saturating_sub(RING_WINDOW_NS);
        self.base_ns = min_keep;
        self.buf.clear();
        self.head = 0;
        let mut kept = 0usize;
        for e in &events {
            if e.t_ns < min_keep {
                continue;
            }
            self.buf.push(Packed {
                dt_us: ((e.t_ns - min_keep) / 1000) as u32,
                sym_kind: pack_sym_kind(e.sym, e.kind),
                payload: e.payload,
            });
            kept += 1;
        }
        self.dropped += (events.len() - kept) as u64;
    }

    fn unpack(&self, p: Packed) -> Event {
        Event {
            t_ns: self.base_ns + u64::from(p.dt_us) * 1000,
            payload: p.payload,
            sym: Sym(p.sym_kind & (SYM_LIMIT - 1)),
            kind: unpack_kind(p.sym_kind),
        }
    }

    fn decode_ordered(&self) -> Vec<Event> {
        let split = self.head.min(self.buf.len());
        let (newer, older) = self.buf.split_at(split);
        older
            .iter()
            .chain(newer.iter())
            .map(|&p| self.unpack(p))
            .collect()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events rejected by the `cap:` rate throttle on this ring's
    /// thread.
    pub fn capped(&self) -> u64 {
        self.capped
    }

    /// The newest `n` events, oldest first, without draining.
    pub fn last(&self, n: usize) -> Vec<Event> {
        let mut events = self.decode_ordered();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }

    /// Removes and returns all held events, oldest first, resetting the
    /// epoch and the drop/cap accounting.
    pub fn drain_ordered(&mut self) -> Vec<Event> {
        let out = self.decode_ordered();
        self.buf = Vec::new();
        self.head = 0;
        self.dropped = 0;
        self.capped = 0;
        self.has_base = false;
        out
    }
}

/// The owner-thread staging area in front of a ring: a plain `Vec` of
/// already-packed events (against `base_ns`, the batch's first
/// timestamp) plus the coarse clock and rate-cap state. Only ever
/// touched by the thread that registered it. Packing at record time
/// makes the flush a bulk [`RingBuf::absorb`] — one rebase check per
/// event instead of a nanosecond round-trip — and halves the staged
/// write traffic.
struct Stage {
    buf: Vec<Packed>,
    base_ns: u64,
    coarse_ns: u64,
    refresh_left: u32,
    cap_sec: u64,
    cap_count: u32,
    capped: u64,
}

struct ThreadBuf {
    tid: u32,
    name: String,
    ring: Mutex<RingBuf>,
    stage: UnsafeCell<Stage>,
}

// SAFETY: `stage` is only ever accessed from the thread that registered
// this ThreadBuf (via the thread-local FAST pointer on the hot path and
// the thread-local FLUSH_ON_EXIT destructor at teardown); every
// cross-thread access goes through the `ring` mutex.
unsafe impl Sync for ThreadBuf {}

// ThreadBufs are Box::leak'ed: a thread can record right up to its last
// TLS destructor and drains can happen at any time, so lanes must be
// 'static. The cost is one small struct per recording thread for the
// process lifetime (ring Vecs are freed at drain; the stage Vec is at
// most STAGE_FLUSH events).
static THREADS: Mutex<Vec<&'static ThreadBuf>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    // Hot-path handle: a bare pointer in a Cell with no Drop glue, so
    // the per-event cost is one TLS load and a null check.
    static FAST: Cell<*const ThreadBuf> = const { Cell::new(std::ptr::null()) };
    // Cold registration slot whose destructor flushes staged events at
    // thread exit, so short-lived pool workers never strand a partial
    // batch.
    static FLUSH_ON_EXIT: RefCell<Option<LocalFlush>> = const { RefCell::new(None) };
}

struct LocalFlush(&'static ThreadBuf);

impl Drop for LocalFlush {
    fn drop(&mut self) {
        // SAFETY: destructor runs on the owning thread; see ThreadBuf.
        let stage = unsafe { &mut *self.0.stage.get() };
        flush_stage(self.0, stage);
    }
}

#[cold]
fn register_current_thread() -> *const ThreadBuf {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buf: &'static ThreadBuf = Box::leak(Box::new(ThreadBuf {
        tid,
        name,
        ring: Mutex::new(RingBuf::with_capacity(RING_CAPACITY)),
        stage: UnsafeCell::new(Stage {
            buf: Vec::with_capacity(STAGE_FLUSH),
            base_ns: 0,
            coarse_ns: 0,
            refresh_left: 0,
            cap_sec: 0,
            cap_count: 0,
            capped: 0,
        }),
    }));
    THREADS.lock().expect("trace threads lock").push(buf);
    // If TLS is already tearing down the destructor slot is gone; the
    // thread still records, it just flushes only on explicit drains.
    let _ = FLUSH_ON_EXIT.try_with(|slot| *slot.borrow_mut() = Some(LocalFlush(buf)));
    buf as *const ThreadBuf
}

/// Runs `f` with this thread's buffer and staging area, registering
/// the thread on first use. Loses the event (rather than panicking)
/// during TLS teardown.
#[inline]
fn with_stage(f: impl FnOnce(&'static ThreadBuf, &mut Stage)) {
    let _ = FAST.try_with(|cell| {
        let mut p = cell.get();
        if p.is_null() {
            p = register_current_thread();
            cell.set(p);
        }
        // SAFETY: p points at a leaked 'static ThreadBuf whose stage
        // only this thread touches (see ThreadBuf).
        let tb = unsafe { &*p };
        let stage = unsafe { &mut *tb.stage.get() };
        f(tb, stage);
    });
}

/// Moves the staged batch into the shared ring. Once per
/// [`STAGE_FLUSH`] events, so kept out of line of the staging path.
#[cold]
fn flush_stage(tb: &ThreadBuf, stage: &mut Stage) {
    if stage.buf.is_empty() && stage.capped == 0 {
        return;
    }
    let mut ring = tb.ring.lock().expect("trace ring lock");
    ring.absorb(stage.base_ns, &stage.buf);
    stage.buf.clear();
    ring.capped += std::mem::take(&mut stage.capped);
}

/// Stages one packed event, starting a new batch epoch when the stage
/// is empty and flushing when it fills. An event the batch epoch cannot
/// hold starts a batch of its own: one that precedes it (a complete
/// event whose span opened before the batch's first event, which a
/// clamp would draw after the work it encloses) or one past the u32-µs
/// window (71 minutes between flushes on one thread).
#[inline]
fn stage_push(tb: &ThreadBuf, stage: &mut Stage, t_ns: u64, sym_kind: u32, payload: u64) {
    if stage.buf.is_empty() {
        stage.base_ns = t_ns;
    }
    let mut dt_us = t_ns.wrapping_sub(stage.base_ns) / 1000;
    if t_ns < stage.base_ns || dt_us > u64::from(u32::MAX) {
        flush_stage(tb, stage);
        stage.base_ns = t_ns;
        dt_us = 0;
    }
    stage.buf.push(Packed {
        dt_us: dt_us as u32,
        sym_kind,
        payload,
    });
    if stage.buf.len() >= STAGE_FLUSH {
        flush_stage(tb, stage);
    }
}

fn flush_current_thread() {
    with_stage(flush_stage);
}

/// The coarse timestamp for instant-path events: re-reads the real
/// clock only at batch starts and every [`CLOCK_REFRESH`] events.
#[inline]
fn stage_now(stage: &mut Stage) -> u64 {
    if stage.refresh_left == 0 || stage.buf.is_empty() {
        stage.coarse_ns = stage.coarse_ns.max(now_ns());
        stage.refresh_left = CLOCK_REFRESH;
    }
    stage.refresh_left -= 1;
    stage.coarse_ns
}

/// Applies the `cap:` per-thread events/sec throttle; a rejected event
/// is counted, not silently lost.
#[inline]
fn cap_admits(stage: &mut Stage, t_ns: u64) -> bool {
    let cap = RATE_CAP.load(Ordering::Relaxed);
    if cap == 0 {
        return true;
    }
    let sec = t_ns / 1_000_000_000;
    if sec != stage.cap_sec {
        stage.cap_sec = sec;
        stage.cap_count = 0;
    }
    if stage.cap_count >= cap {
        stage.capped += 1;
        return false;
    }
    stage.cap_count += 1;
    true
}

/// Records an event timestamped with the coarse batched clock. No-op
/// (one relaxed load) when the recorder is off.
#[inline]
pub fn record(sym: Sym, kind: EventKind, payload: u64) {
    let mut hot = HOT.load(Ordering::Relaxed);
    if hot & HOT_ON == 0 {
        if hot & HOT_INIT != 0 || !enabled() {
            return;
        }
        hot = HOT.load(Ordering::Relaxed);
    }
    if hot & HOT_SAMPLED != 0 && !keep(sym) {
        return;
    }
    with_stage(|tb, stage| {
        let t_ns = stage_now(stage);
        if hot & HOT_CAPPED != 0 && !cap_admits(stage, t_ns) {
            return;
        }
        stage_push(tb, stage, t_ns, pack_sym_kind(sym, kind), payload);
    });
}

/// [`record`] with the name interned on the spot. For sites where a
/// per-call-site cached [`Sym`] is wrong (generic functions share one
/// `static` across monomorphizations) or not worth it (rare events).
pub fn record_named(name: &str, kind: EventKind, payload: u64) {
    if !enabled() {
        return;
    }
    record(sym(name), kind, payload);
}

/// Records a complete span event: `start_ns` relative to the epoch
/// plus its duration — timestamps the caller derived from a clock
/// reading it already held, so this path never reads the clock. The
/// event's end advances the thread's coarse clock for free. No-op (one
/// relaxed load) when off.
#[inline]
pub fn record_complete(sym: Sym, start_ns: u64, dur_ns: u64) {
    record_complete_with(sym, || start_ns, dur_ns);
}

/// [`record_complete`] for sites timed on the integer clock: `start`
/// is a [`crate::clock::now`] reading. The epoch conversion, one
/// subtraction, runs *after* the one-load gate, so a disarmed site pays
/// exactly one relaxed load and an armed site needs no separate
/// `enabled()` check to make the conversion conditional.
#[inline]
pub fn record_complete_since(sym: Sym, start: u64, dur_ns: u64) {
    record_complete_with(sym, || crate::clock::to_epoch(start), dur_ns);
}

/// The gate and staging shared by the complete-event entry points;
/// `start_ns` runs only when the event is admitted.
#[inline]
fn record_complete_with(sym: Sym, start_ns: impl FnOnce() -> u64, dur_ns: u64) {
    let mut hot = HOT.load(Ordering::Relaxed);
    if hot & HOT_ON == 0 {
        if hot & HOT_INIT != 0 || !enabled() {
            return;
        }
        hot = HOT.load(Ordering::Relaxed);
    }
    if hot & HOT_SAMPLED != 0 && !keep(sym) {
        return;
    }
    let start_ns = start_ns();
    with_stage(|tb, stage| {
        let end_ns = start_ns.saturating_add(dur_ns);
        if end_ns > stage.coarse_ns {
            stage.coarse_ns = end_ns;
        }
        if hot & HOT_CAPPED != 0 && !cap_admits(stage, end_ns) {
            return;
        }
        stage_push(tb, stage, start_ns, pack_sym_kind(sym, EventKind::Complete), dur_ns);
    });
}

// ---------------------------------------------------------------------
// Deterministic sampling and throttling
// ---------------------------------------------------------------------

struct SampleSite {
    sym: Sym,
    stream_hash: u64,
    every: u32,
    counter: AtomicU64,
}

struct SampleTable {
    seed: u64,
    sites: Vec<SampleSite>,
    global: Option<SampleSite>,
}

static SAMPLE_TABLE: AtomicPtr<SampleTable> = AtomicPtr::new(std::ptr::null_mut());
static RATE_CAP: AtomicU32 = AtomicU32::new(0);
static SAMPLE_ENV: OnceLock<()> = OnceLock::new();

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn mix_hashed(seed: u64, stream_hash: u64, index: u64) -> u64 {
    let mut z = seed ^ stream_hash ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes `(seed, stream, index)` into a uniform `u64`: FNV-1a over the
/// stream label, then SplitMix64 finalisation mixing in the index.
///
/// The workspace's one seed mixer. `btpub_faults::mix` re-exports it
/// and `btpub_sim::rngs::derive` seeds every world RNG from it; it lives
/// here because `obs` sits below both in the dependency graph. Stateless
/// by construction — the value depends only on the three inputs, never
/// on call order — which is what makes serial and parallel runs agree
/// and lets tests predict exactly which draws a sampling spec keeps.
/// `#[inline]` so the fault planner's per-announce draw still inlines
/// across the crate boundary.
#[inline]
pub fn mix(seed: u64, stream: &str, index: u64) -> u64 {
    mix_hashed(seed, fnv1a(stream.as_bytes()), index)
}

/// Whether the sampling table admits the next event for `sym`. With no
/// table installed (the default) this is one relaxed-acquire pointer
/// load.
#[inline]
fn keep(sym: Sym) -> bool {
    let p = SAMPLE_TABLE.load(Ordering::Acquire);
    if p.is_null() {
        return true;
    }
    // SAFETY: tables are leaked on swap (see apply_spec), so a loaded
    // pointer stays valid for the process lifetime.
    keep_sampled(unsafe { &*p }, sym)
}

fn keep_sampled(table: &SampleTable, sym: Sym) -> bool {
    for site in &table.sites {
        if site.sym == sym {
            return site_admits(table.seed, site);
        }
    }
    match &table.global {
        Some(g) => site_admits(table.seed, g),
        None => true,
    }
}

fn site_admits(seed: u64, site: &SampleSite) -> bool {
    if site.every <= 1 {
        return true;
    }
    // The i-th draw for a site is kept iff mix(seed, site, i) lands on
    // the residue — the kept *index set* is a pure function of
    // (seed, site, N), so the number of kept events is identical no
    // matter how threads interleave their fetch_adds.
    let index = site.counter.fetch_add(1, Ordering::Relaxed);
    mix_hashed(seed, site.stream_hash, index) % u64::from(site.every) == 0
}

struct ParsedSpec {
    table: Option<SampleTable>,
    cap: u32,
}

fn parse_every(token: &str, value: &str) -> Result<u32, String> {
    let n: u32 = value
        .parse()
        .map_err(|_| format!("sample rate in {token:?} is not a u32"))?;
    if n == 0 {
        return Err(format!("sample rate in {token:?} must be >= 1"));
    }
    Ok(n)
}

fn parse_sample_spec(spec: &str) -> Result<ParsedSpec, String> {
    let mut seed = 0u64;
    let mut cap = 0u32;
    let mut sites: Vec<(String, u32)> = Vec::new();
    let mut global: Option<u32> = None;
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let (name, value) = token.rsplit_once(':').ok_or_else(|| {
            format!("token {token:?} is not <site>:<1-in-N> (or seed:<u64>, cap:<per-sec>, *:<N>)")
        })?;
        let (name, value) = (name.trim(), value.trim());
        match name {
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("seed {value:?} is not a u64"))?;
            }
            "cap" => {
                let n: u32 = value
                    .parse()
                    .map_err(|_| format!("cap {value:?} is not a u32"))?;
                if n == 0 {
                    return Err("cap must be >= 1 event/sec (omit it for uncapped)".to_string());
                }
                cap = n;
            }
            "*" => global = Some(parse_every(token, value)?),
            "" => return Err(format!("token {token:?} has an empty site name")),
            _ => sites.push((name.to_string(), parse_every(token, value)?)),
        }
    }
    let table = if sites.is_empty() && global.is_none() {
        None
    } else {
        Some(SampleTable {
            seed,
            sites: sites
                .into_iter()
                .map(|(name, every)| SampleSite {
                    sym: sym(&name),
                    stream_hash: fnv1a(name.as_bytes()),
                    every,
                    counter: AtomicU64::new(0),
                })
                .collect(),
            global: global.map(|every| SampleSite {
                // Never compared against a real Sym (those stay below
                // SYM_LIMIT); the global site matches by fallthrough.
                sym: Sym(u32::MAX),
                stream_hash: fnv1a(b"*"),
                every,
                counter: AtomicU64::new(0),
            }),
        })
    };
    Ok(ParsedSpec { table, cap })
}

fn apply_spec(spec: &str) -> Result<(), String> {
    let parsed = parse_sample_spec(spec)?;
    RATE_CAP.store(parsed.cap, Ordering::Relaxed);
    let ptr = parsed
        .table
        .map_or(std::ptr::null_mut(), |t| Box::into_raw(Box::new(t)));
    // The previous table is leaked on purpose: another thread may still
    // be mid-draw against it, and specs change a handful of times per
    // process at most.
    let _old = SAMPLE_TABLE.swap(ptr, Ordering::AcqRel);
    recompute_hot();
    Ok(())
}

/// Installs a sampling/throttle spec, replacing any previous one (the
/// programmatic twin of `BTPUB_TRACE_SAMPLE`; an explicit call wins
/// over the env).
///
/// Grammar, comma-separated: `<site>:<1-in-N>` samples a named site,
/// `*:<1-in-N>` samples every site without its own rule, `seed:<u64>`
/// seeds the draws, `cap:<N>` caps each thread at N events/sec
/// (rejections are counted as `capped`). The empty string clears
/// sampling and the cap. Per-site draw counters restart at zero, so a
/// fixed `(seed, spec)` pair keeps exactly the same event set on every
/// run.
pub fn set_sample_spec(spec: &str) -> Result<(), String> {
    SAMPLE_ENV.get_or_init(|| ());
    apply_spec(spec)
}

fn ensure_sample_env() {
    SAMPLE_ENV.get_or_init(|| {
        if let Ok(raw) = std::env::var("BTPUB_TRACE_SAMPLE") {
            if let Err(e) = apply_spec(&raw) {
                eprintln!(
                    "btpub-obs: ignoring BTPUB_TRACE_SAMPLE {raw:?}: {e} \
                     (grammar: <site>:<1-in-N>[,*:<N>][,seed:<u64>][,cap:<per-sec>])"
                );
            }
        }
    });
}

// ---------------------------------------------------------------------
// Breaker-driven adaptive sampling
// ---------------------------------------------------------------------

/// How many failure domains (circuit breakers) are currently open.
/// While non-zero, [`recompute_hot`] leaves `HOT_SAMPLED` and
/// `HOT_CAPPED` out of the fused gate, so armed record sites skip the
/// sampling and throttle checks entirely — full-rate tracing exactly
/// while the system is unhealthy. The installed spec ([`SAMPLE_TABLE`]
/// / [`RATE_CAP`]) is untouched, so the swap back is one gate store.
static FULL_RATE_DEPTH: AtomicU32 = AtomicU32::new(0);

/// Enters a full-rate tracing window: a circuit breaker opened, and
/// until every open breaker closes again ([`pop_full_rate`]) the armed
/// recorder bypasses any installed sampling spec and rate cap — the
/// events leading *out of* an incident are the ones worth keeping
/// whole. Deterministic by construction: callers key this off breaker
/// state transitions, which are pure functions of the input sequence,
/// never off wall clock — and the recorder still writes only to its own
/// rings, so an adaptive armed run cannot move a report byte.
///
/// `reason` labels the window (the breaker name) in the
/// digest-excluded `trace.adaptive.*` counters and, when armed, as a
/// trace instant.
pub fn push_full_rate(reason: &str) {
    let prev = FULL_RATE_DEPTH.fetch_add(1, Ordering::Relaxed);
    recompute_hot();
    crate::counter("trace.adaptive.windows").inc();
    crate::counter(&format!("trace.adaptive.windows.{reason}")).inc();
    if prev == 0 && enabled() {
        record_named("trace.adaptive.full_rate.enter", EventKind::Instant, 1);
    }
}

/// Leaves a full-rate tracing window (the breaker that pushed it
/// closed). The configured sampling spec and cap come back into force
/// once the last open window pops. Unbalanced pops (a cloned breaker,
/// say) are ignored rather than underflowed.
pub fn pop_full_rate(reason: &str) {
    let mut cur = FULL_RATE_DEPTH.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return;
        }
        match FULL_RATE_DEPTH.compare_exchange_weak(
            cur,
            cur - 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(prev) => {
                cur = prev;
                break;
            }
            Err(v) => cur = v,
        }
    }
    recompute_hot();
    crate::counter(&format!("trace.adaptive.closed.{reason}")).inc();
    if cur == 1 && enabled() {
        record_named("trace.adaptive.full_rate.exit", EventKind::Instant, 0);
    }
}

/// Whether at least one full-rate window is open (some breaker is
/// tripped and the sampling spec is bypassed).
pub fn full_rate_active() -> bool {
    FULL_RATE_DEPTH.load(Ordering::Relaxed) > 0
}

// ---------------------------------------------------------------------
// Snapshots, draining, export
// ---------------------------------------------------------------------

/// One thread's drained trace.
#[derive(Debug)]
pub struct ThreadTrace {
    /// Recorder-assigned lane id (registration order).
    pub tid: u32,
    /// OS thread name at registration (`btpub-par/<pool>/<w>` for pool
    /// workers — the Perfetto lane label).
    pub name: String,
    /// Events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around on this thread.
    pub dropped: u64,
    /// Events rejected by the `cap:` rate throttle on this thread.
    pub capped: u64,
}

/// Everything the recorder held, drained: per-thread event lists (rings
/// emptied, sorted by lane id) plus the symbol table resolving
/// [`Sym`]s.
#[derive(Debug)]
pub struct TraceSnapshot {
    /// Per-thread traces, sorted by `tid`.
    pub threads: Vec<ThreadTrace>,
    /// `symbols[sym.0]` is the event name.
    pub symbols: Vec<String>,
}

impl TraceSnapshot {
    /// Resolves a [`Sym`] against this snapshot's symbol table.
    pub fn name(&self, s: Sym) -> &str {
        self.symbols
            .get(s.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }
}

/// Drains every thread's ring into a [`TraceSnapshot`]. Threads stay
/// registered (they keep recording into now-empty rings if the recorder
/// is still on). Ring-drop and rate-cap accounting is recorded into the
/// global registry as `trace.dropped.<thread>` / `trace.capped.<thread>`
/// counters here — *after* the run, excluded from manifest digests —
/// so silent event loss shows up in `--metrics` output and the text
/// report, not only in the trace file.
pub fn drain() -> TraceSnapshot {
    flush_current_thread();
    let threads = THREADS.lock().expect("trace threads lock");
    let mut out = Vec::new();
    for t in threads.iter() {
        let mut ring = t.ring.lock().expect("trace ring lock");
        let dropped = ring.dropped();
        let capped = ring.capped();
        let events = ring.drain_ordered();
        if events.is_empty() && dropped == 0 && capped == 0 {
            continue;
        }
        out.push(ThreadTrace {
            tid: t.tid,
            name: t.name.clone(),
            events,
            dropped,
            capped,
        });
    }
    drop(threads);
    out.sort_by_key(|t| t.tid);
    for t in &out {
        if t.dropped > 0 {
            crate::counter(&format!("trace.dropped.{}", t.name)).add(t.dropped);
        }
        if t.capped > 0 {
            crate::counter(&format!("trace.capped.{}", t.name)).add(t.capped);
        }
    }
    TraceSnapshot {
        threads: out,
        symbols: current_symbols(),
    }
}

/// A bounded copy of the newest `per_thread` events per lane *without*
/// draining: rings keep their contents and accounting. This is the
/// black-box read path — cheap enough to run while the system limps
/// on. (Other threads' sub-batch staged tails, at most `STAGE_FLUSH`
/// events each, are not visible here; only the calling thread's stage
/// is flushed.)
pub fn snapshot_last(per_thread: usize) -> TraceSnapshot {
    flush_current_thread();
    let threads = THREADS.lock().expect("trace threads lock");
    let mut out = Vec::new();
    for t in threads.iter() {
        let ring = t.ring.lock().expect("trace ring lock");
        let events = ring.last(per_thread);
        let dropped = ring.dropped();
        let capped = ring.capped();
        if events.is_empty() && dropped == 0 && capped == 0 {
            continue;
        }
        out.push(ThreadTrace {
            tid: t.tid,
            name: t.name.clone(),
            events,
            dropped,
            capped,
        });
    }
    drop(threads);
    out.sort_by_key(|t| t.tid);
    TraceSnapshot {
        threads: out,
        symbols: current_symbols(),
    }
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(*k, v.clone());
    }
    Value::Object(m)
}

fn micros(ns: u64) -> Value {
    Value::from(ns as f64 / 1000.0)
}

/// Renders a snapshot as Chrome trace event format JSON
/// (`{"traceEvents": [...]}`): an `"M"` thread-name metadata record per
/// lane, `"X"` complete events for spans, `"i"` instants (thread scope)
/// for point events, and `"C"` counter samples. Timestamps are
/// microseconds since the observability epoch.
pub fn chrome_trace(snap: &TraceSnapshot) -> Value {
    chrome_trace_with(snap, Vec::new())
}

/// [`chrome_trace`] with caller-supplied extra events appended (the
/// black-box trip marker).
fn chrome_trace_with(snap: &TraceSnapshot, extra: Vec<Value>) -> Value {
    let mut events = Vec::new();
    for t in &snap.threads {
        let tid = Value::from(t.tid);
        events.push(obj(&[
            ("ph", Value::from("M")),
            ("name", Value::from("thread_name")),
            ("pid", Value::from(1u64)),
            ("tid", tid.clone()),
            ("args", obj(&[("name", Value::from(t.name.as_str()))])),
        ]));
        for e in &t.events {
            let name = Value::from(snap.name(e.sym));
            events.push(match e.kind {
                EventKind::Complete => obj(&[
                    ("ph", Value::from("X")),
                    ("name", name),
                    ("cat", Value::from("span")),
                    ("pid", Value::from(1u64)),
                    ("tid", tid.clone()),
                    ("ts", micros(e.t_ns)),
                    ("dur", micros(e.payload)),
                ]),
                EventKind::Instant => obj(&[
                    ("ph", Value::from("i")),
                    ("name", name),
                    ("cat", Value::from("event")),
                    ("pid", Value::from(1u64)),
                    ("tid", tid.clone()),
                    ("ts", micros(e.t_ns)),
                    ("s", Value::from("t")),
                    ("args", obj(&[("v", Value::from(e.payload))])),
                ]),
                EventKind::Counter => obj(&[
                    ("ph", Value::from("C")),
                    ("name", name),
                    ("pid", Value::from(1u64)),
                    ("tid", tid.clone()),
                    ("ts", micros(e.t_ns)),
                    ("args", obj(&[("value", Value::from(e.payload))])),
                ]),
            });
        }
        if t.dropped > 0 || t.capped > 0 {
            let last_ts = t.events.last().map(|e| e.t_ns).unwrap_or(0);
            events.push(obj(&[
                ("ph", Value::from("i")),
                ("name", Value::from("trace.dropped")),
                ("cat", Value::from("trace")),
                ("pid", Value::from(1u64)),
                ("tid", tid.clone()),
                ("ts", micros(last_ts)),
                ("s", Value::from("t")),
                (
                    "args",
                    obj(&[
                        ("count", Value::from(t.dropped)),
                        ("capped", Value::from(t.capped)),
                    ]),
                ),
            ]));
        }
    }
    events.extend(extra);
    obj(&[
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

/// Drains the recorder and writes Chrome trace JSON to `path`,
/// returning the number of non-metadata events written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let snap = drain();
    let count = snap.event_count();
    let json = serde_json::to_string(&chrome_trace(&snap))
        .map_err(|e| std::io::Error::other(format!("trace serialization failed: {e}")))?;
    std::fs::write(path, json)?;
    Ok(count)
}

// ---------------------------------------------------------------------
// The black box: snapshot-on-trip and the panic hook
// ---------------------------------------------------------------------

struct Blackbox {
    prefix: Option<String>,
    seen: Vec<String>,
    written: u32,
}

static BLACKBOX: Mutex<Blackbox> = Mutex::new(Blackbox {
    prefix: None,
    seen: Vec::new(),
    written: 0,
});
static SNAPSHOT_ENV: OnceLock<()> = OnceLock::new();

/// Sets (or clears) the black-box dump path prefix — the programmatic
/// twin of `BTPUB_TRACE_SNAPSHOT`. Dumps land at
/// `<prefix>-<seq>-<reason>.json`.
pub fn set_snapshot_prefix(prefix: Option<String>) {
    SNAPSHOT_ENV.get_or_init(|| ());
    BLACKBOX.lock().expect("trace blackbox lock").prefix = prefix;
}

fn ensure_snapshot_env() {
    SNAPSHOT_ENV.get_or_init(|| {
        if let Ok(raw) = std::env::var("BTPUB_TRACE_SNAPSHOT") {
            let p = raw.trim().to_string();
            if !p.is_empty() {
                BLACKBOX.lock().expect("trace blackbox lock").prefix = Some(p);
            }
        }
    });
}

fn slug(reason: &str) -> String {
    let mut s: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    s.truncate(48);
    if s.is_empty() {
        s.push('x');
    }
    s
}

/// The black-box dump: writes the newest `BLACKBOX_EVENTS` events
/// per lane (plus a `blackbox.trip` marker carrying `reason`) as a
/// loadable Chrome trace to `<prefix>-<seq>-<reason>.json`, without
/// draining the rings.
///
/// Wired from the `btpub-faults` trip points (first fault per stream,
/// breaker opening). A no-op returning `None` unless the recorder is
/// armed *and* a prefix is set ([`set_snapshot_prefix`] or
/// `BTPUB_TRACE_SNAPSHOT`); each distinct reason dumps at most once
/// and at most `BLACKBOX_MAX` dumps are written per process, so a
/// fault storm cannot become an I/O storm.
pub fn trip(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    ensure_snapshot_env();
    let path = {
        let mut bb = BLACKBOX.lock().expect("trace blackbox lock");
        let prefix = bb.prefix.clone()?;
        if bb.written >= BLACKBOX_MAX || bb.seen.iter().any(|r| r == reason) {
            return None;
        }
        bb.seen.push(reason.to_string());
        bb.written += 1;
        PathBuf::from(format!("{prefix}-{:03}-{}.json", bb.written, slug(reason)))
    };
    let snap = snapshot_last(BLACKBOX_EVENTS);
    let marker = obj(&[
        ("ph", Value::from("i")),
        ("name", Value::from("blackbox.trip")),
        ("cat", Value::from("trace")),
        ("pid", Value::from(1u64)),
        ("tid", Value::from(0u64)),
        ("ts", micros(now_ns())),
        ("s", Value::from("g")),
        ("args", obj(&[("reason", Value::from(reason))])),
    ]);
    let doc = chrome_trace_with(&snap, vec![marker]);
    let json = serde_json::to_string(&doc).ok()?;
    if let Err(e) = std::fs::write(&path, json) {
        // An unwritable prefix would otherwise fail (and warn) on every
        // distinct trip reason for the rest of the run. Warn once and
        // disable instead, mirroring the spill-dir and checkpoint-dir
        // fallbacks: clearing the prefix makes every later trip a
        // cheap no-op.
        let mut bb = BLACKBOX.lock().expect("trace blackbox lock");
        if let Some(prefix) = bb.prefix.take() {
            eprintln!(
                "btpub-obs: black-box dump to {} failed: {e}; snapshot prefix \
                 {prefix:?} is unwritable, falling back to no black-box dumps \
                 for the rest of the run",
                path.display()
            );
        }
        return None;
    }
    crate::counter("trace.blackbox.trips").inc();
    Some(path)
}

/// Resets the process-global black-box state (prefix, per-reason dedup
/// list, per-process dump count). The dedup list and cap are
/// deliberately never reset in production — this exists so tests of the
/// trip path can run from a known state.
#[doc(hidden)]
pub fn reset_blackbox_for_tests() {
    let mut bb = BLACKBOX.lock().expect("trace blackbox lock");
    bb.prefix = None;
    bb.seen.clear();
    bb.written = 0;
}

static PANIC_HOOK: OnceLock<PathBuf> = OnceLock::new();

/// Installs (once per process) a panic hook that, after the default
/// hook reports the panic, drains the rings and writes the Chrome
/// trace to `path` — a crashing armed run yields a loadable trace
/// instead of nothing. Later calls keep the first path. Does nothing
/// at panic time if the recorder is off.
pub fn install_panic_hook(path: impl Into<PathBuf>) {
    let path = path.into();
    let mut first = false;
    PANIC_HOOK.get_or_init(|| {
        first = true;
        path
    });
    if !first {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        if !enabled() {
            return;
        }
        let target = PANIC_HOOK.get().expect("panic hook path").clone();
        // catch_unwind: a second panic inside the hook would abort the
        // process before the default hook's message is useful.
        let wrote = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_chrome_trace(&target)
        }));
        match wrote {
            Ok(Ok(n)) => eprintln!(
                "btpub-obs: flight recorder flushed {n} events to {} after panic",
                target.display()
            ),
            _ => eprintln!(
                "btpub-obs: failed to flush flight recorder to {} after panic",
                target.display()
            ),
        }
    }));
}

/// Records an instant event when the recorder is on; exactly one
/// relaxed atomic load when it is off. The name is interned once per
/// call site — do **not** use inside generic functions (the cached
/// `static` would be shared across monomorphizations; use
/// [`trace::record_named`](crate::trace::record_named) there). The
/// payload expression is only evaluated when the recorder is on and
/// must be `u64`.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr, $payload:expr) => {
        if $crate::trace::enabled() {
            static SYM: ::std::sync::OnceLock<$crate::trace::Sym> = ::std::sync::OnceLock::new();
            $crate::trace::record(
                *SYM.get_or_init(|| $crate::trace::sym($name)),
                $crate::trace::EventKind::Instant,
                $payload,
            );
        }
    };
    ($name:expr) => {
        $crate::trace_instant!($name, 0u64)
    };
}

/// Records a counter-track sample (Chrome `"C"` event) when the
/// recorder is on; one relaxed atomic load when off. Same caveats as
/// [`trace_instant!`](crate::trace_instant).
#[macro_export]
macro_rules! trace_count {
    ($name:expr, $value:expr) => {
        if $crate::trace::enabled() {
            static SYM: ::std::sync::OnceLock<$crate::trace::Sym> = ::std::sync::OnceLock::new();
            $crate::trace::record(
                *SYM.get_or_init(|| $crate::trace::sym($name)),
                $crate::trace::EventKind::Counter,
                $value,
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sym: Sym, payload: u64) -> Event {
        Event {
            // Whole-µs timestamps: the packed ring stores µs deltas, so
            // sub-µs inputs would be quantized away (tested separately).
            t_ns: payload * 1000,
            payload,
            sym,
            kind: EventKind::Instant,
        }
    }

    #[test]
    fn ring_is_lazy_and_bounded() {
        let ring = RingBuf::with_capacity(1024);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.capped(), 0);
    }

    #[test]
    fn ring_wraps_overwriting_oldest_with_drop_accounting() {
        let s = sym("test.ring.wrap");
        let mut ring = RingBuf::with_capacity(4);
        for i in 0..10u64 {
            ring.push(ev(s, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let drained: Vec<u64> = ring.drain_ordered().iter().map(|e| e.payload).collect();
        assert_eq!(drained, vec![6, 7, 8, 9], "oldest events were overwritten");
        assert_eq!(ring.dropped(), 0, "drain resets drop accounting");
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_under_capacity_keeps_everything_in_order() {
        let s = sym("test.ring.order");
        let mut ring = RingBuf::with_capacity(8);
        for i in 0..5u64 {
            ring.push(ev(s, i));
        }
        let drained: Vec<u64> = ring.drain_ordered().iter().map(|e| e.payload).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_packs_timestamps_as_micros_against_first_event() {
        let s = sym("test.ring.pack");
        let mut ring = RingBuf::with_capacity(8);
        // First event pins the epoch exactly; later ones quantize to µs.
        ring.push(Event {
            t_ns: 1_234_567,
            payload: 0,
            sym: s,
            kind: EventKind::Complete,
        });
        ring.push(Event {
            t_ns: 1_237_100,
            payload: 9,
            sym: s,
            kind: EventKind::Counter,
        });
        let drained = ring.drain_ordered();
        assert_eq!(drained[0].t_ns, 1_234_567);
        assert_eq!(drained[0].kind, EventKind::Complete);
        assert_eq!(drained[1].t_ns, 1_236_567, "2533ns delta quantized to 2µs");
        assert_eq!(drained[1].kind, EventKind::Counter);
        assert_eq!(drained[1].payload, 9);
    }

    #[test]
    fn ring_rebases_epoch_past_the_u32_micro_window() {
        let s = sym("test.ring.rebase");
        let mut ring = RingBuf::with_capacity(8);
        ring.push(ev(s, 1)); // t = 1µs
        let far = RING_WINDOW_NS + 5_000_000;
        ring.push(Event {
            t_ns: far,
            payload: 2,
            sym: s,
            kind: EventKind::Instant,
        });
        assert_eq!(ring.dropped(), 1, "event outside the new window is dropped");
        let drained = ring.drain_ordered();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].t_ns, far, "survivor decodes to its true time");
        assert_eq!(drained[0].payload, 2);
    }

    #[test]
    fn ring_moves_epoch_back_for_an_earlier_event() {
        let s = sym("test.ring.back");
        let mut ring = RingBuf::with_capacity(8);
        ring.push(ev(s, 50));
        // A span that opened before the ring's first event.
        ring.push(Event {
            t_ns: 20_000,
            payload: 1,
            sym: s,
            kind: EventKind::Complete,
        });
        // A staged batch whose epoch precedes both.
        ring.absorb(
            7_500,
            &[Packed {
                dt_us: 3,
                sym_kind: pack_sym_kind(s, EventKind::Instant),
                payload: 2,
            }],
        );
        let times: Vec<u64> = ring.drain_ordered().iter().map(|e| e.t_ns).collect();
        assert_eq!(
            times,
            vec![50_000, 20_000, 10_000],
            "no event clamps to a later epoch"
        );
    }

    #[test]
    fn ring_last_returns_newest_without_draining() {
        let s = sym("test.ring.last");
        let mut ring = RingBuf::with_capacity(8);
        for i in 0..5u64 {
            ring.push(ev(s, i));
        }
        let last: Vec<u64> = ring.last(2).iter().map(|e| e.payload).collect();
        assert_eq!(last, vec![3, 4]);
        assert_eq!(ring.len(), 5, "last() must not drain");
    }

    #[test]
    fn interner_returns_stable_symbols() {
        let a = sym("test.intern.a");
        let b = sym("test.intern.b");
        assert_ne!(a, b);
        assert_eq!(a, sym("test.intern.a"));
    }

    #[test]
    fn sample_spec_parses_and_rejects() {
        let ok = parse_sample_spec("tracker.announce:16, *:4, seed:42, cap:1000").unwrap();
        let table = ok.table.expect("table");
        assert_eq!(ok.cap, 1000);
        assert_eq!(table.seed, 42);
        assert_eq!(table.sites.len(), 1);
        assert_eq!(table.sites[0].every, 16);
        assert_eq!(table.global.as_ref().map(|g| g.every), Some(4));

        let empty = parse_sample_spec("").unwrap();
        assert!(empty.table.is_none());
        assert_eq!(empty.cap, 0);

        // seed/cap alone install no table (nothing to sample).
        assert!(parse_sample_spec("seed:7").unwrap().table.is_none());

        for bad in ["nonsense", "site:0", "site:-3", "cap:0", "seed:x", ":5"] {
            assert!(parse_sample_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn mix_matches_the_fault_planner_construction() {
        // Pinned values: if these move, every seeded world, fault plan
        // and sampling spec moves with them.
        assert_eq!(mix(1, "a", 2), 0xff34_8301_e0d8_2733);
        assert_eq!(mix(1, "a", 3), 0xfd47_e8a3_73c3_4c97);
        assert_eq!(mix(1, "b", 2), 0xf19e_d877_2319_e759);
        let hits = (0..10_000)
            .filter(|&i| mix(42, "uniformity", i) % 16 == 0)
            .count();
        let expect = 10_000 / 16;
        assert!(
            (expect * 7 / 10..=expect * 13 / 10).contains(&hits),
            "1-in-16 residue should keep ~{expect}, kept {hits}"
        );
    }

    // One test function on purpose: the enable gate, the thread
    // registry, the sampling table and the interner are process-global,
    // so the end-to-end assertions must not race concurrently-scheduled
    // #[test]s toggling the same state.
    #[test]
    fn global_recorder_end_to_end() {
        // Off: event sites are inert.
        set_enabled(false);
        record_named("test.global.off", EventKind::Instant, 1);
        let snap = drain();
        assert!(
            !snap.symbols.iter().any(|s| s == "test.global.off"),
            "a disabled recorder must not intern or store events"
        );

        // On: events from several threads land in per-thread lanes,
        // chronologically ordered within each lane.
        set_enabled(true);
        trace_instant!("test.global.main", 7u64);
        trace_count!("test.global.gauge", 42u64);
        record_complete(sym("test.global.span"), 10_000, 25_000);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("test-lane/{w}"))
                    .spawn(move || {
                        for i in 0..3u64 {
                            record_named("test.global.worker", EventKind::Instant, i);
                        }
                        // Thread exit must flush the staged tail (3 <
                        // STAGE_FLUSH) via the TLS destructor.
                    })
                    .expect("spawn")
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
        set_enabled(false);

        let snap = drain();
        let lanes: Vec<&ThreadTrace> = snap
            .threads
            .iter()
            .filter(|t| t.name.starts_with("test-lane/"))
            .collect();
        assert_eq!(lanes.len(), 2, "each recording thread gets its own lane");
        for lane in &lanes {
            let ours: Vec<&Event> = lane
                .events
                .iter()
                .filter(|e| snap.name(e.sym) == "test.global.worker")
                .collect();
            assert_eq!(ours.len(), 3, "staged events were flushed at thread exit");
            assert!(
                ours.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
                "per-thread drain order is chronological"
            );
            assert_eq!(
                ours.iter().map(|e| e.payload).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
        }
        let main_lane = snap
            .threads
            .iter()
            .find(|t| {
                t.events
                    .iter()
                    .any(|e| snap.name(e.sym) == "test.global.main")
            })
            .expect("main thread recorded");
        assert!(main_lane
            .events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.payload == 42));
        assert!(main_lane
            .events
            .iter()
            .any(|e| e.kind == EventKind::Complete && e.payload == 25_000));

        // Chrome export: metadata per lane, X/i/C events present.
        let json = chrome_trace(&snap);
        let events = json["traceEvents"].as_array().expect("traceEvents array");
        let phases: Vec<&str> = events.iter().filter_map(|e| e["ph"].as_str()).collect();
        for ph in ["M", "X", "i", "C"] {
            assert!(phases.contains(&ph), "missing phase {ph:?} in chrome trace");
        }
        let lane_names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert!(lane_names.iter().any(|n| n.starts_with("test-lane/")));

        // Drained means drained.
        assert_eq!(drain().event_count(), 0);

        // Breaker-driven adaptive override: with a near-everything
        // sampling spec installed, a full-rate window keeps every
        // event; popping it restores the spec.
        set_enabled(true);
        set_sample_spec("test.adaptive.site:1000000,seed:9").expect("spec");
        let site = sym("test.adaptive.site");
        for _ in 0..64 {
            record(site, EventKind::Instant, 1);
        }
        push_full_rate("unit");
        assert!(full_rate_active());
        for _ in 0..64 {
            record(site, EventKind::Instant, 2);
        }
        pop_full_rate("unit");
        assert!(!full_rate_active());
        pop_full_rate("unit"); // unbalanced pop must not underflow
        assert!(!full_rate_active());
        for _ in 0..64 {
            record(site, EventKind::Instant, 3);
        }
        set_enabled(false);
        set_sample_spec("").expect("clear spec");
        let snap = drain();
        let payloads: Vec<u64> = snap
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| snap.name(e.sym) == "test.adaptive.site")
            .map(|e| e.payload)
            .collect();
        assert_eq!(
            payloads.iter().filter(|&&p| p == 2).count(),
            64,
            "a full-rate window bypasses the sampling spec entirely"
        );
        assert!(
            payloads.iter().filter(|&&p| p != 2).count() < 8,
            "outside the window 1-in-1000000 sampling keeps almost nothing: {payloads:?}"
        );
        assert!(
            snap.symbols.iter().any(|s| s == "trace.adaptive.full_rate.enter"),
            "the window boundary is marked in the trace"
        );

        // The black box: per-reason dedup, the per-process cap under
        // concurrent trips, and the unwritable-prefix fallback.
        set_enabled(true);
        reset_blackbox_for_tests();
        let dir = std::env::temp_dir().join(format!("btpub-trace-bb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        set_snapshot_prefix(Some(dir.join("bb").to_string_lossy().into_owned()));
        record_named("test.blackbox.event", EventKind::Instant, 1);
        let first = trip("unit.reason.alpha").expect("first trip dumps");
        assert!(first.exists());
        assert!(
            trip("unit.reason.alpha").is_none(),
            "the same reason twice yields exactly one dump"
        );
        let second = trip("unit.reason.beta").expect("a distinct reason dumps");
        assert_ne!(first, second, "distinct reasons yield distinct dumps");
        // 32 distinct reasons racing from 8 threads: exactly
        // BLACKBOX_MAX - 2 more dumps (2 already written above), never
        // one over.
        let wrote: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|w| {
                    scope.spawn(move || {
                        (0..4)
                            .filter(|i| trip(&format!("unit.cap.{w}.{i}")).is_some())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("join"))
                .sum()
        });
        assert_eq!(
            wrote,
            BLACKBOX_MAX as usize - 2,
            "the per-process cap holds under concurrent trips"
        );
        assert!(
            trip("unit.cap.overflow").is_none(),
            "trips past the cap are refused"
        );
        // An unwritable prefix warns once and disables dumps instead of
        // retrying (and failing) on every later trip reason.
        reset_blackbox_for_tests();
        set_snapshot_prefix(Some(
            dir.join("no-such-subdir")
                .join("bb")
                .to_string_lossy()
                .into_owned(),
        ));
        assert!(trip("unit.unwritable.a").is_none());
        assert!(
            BLACKBOX.lock().expect("trace blackbox lock").prefix.is_none(),
            "a failed dump clears the prefix so later trips are no-ops"
        );
        reset_blackbox_for_tests();
        set_enabled(false);
        drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
