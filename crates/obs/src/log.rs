//! Leveled structured logging with runtime filtering.
//!
//! Log lines go to stderr (stdout stays free for each binary's actual
//! output) in the form:
//!
//! ```text
//! [   12.042s WARN  btpub_crawler::crawler] identify failed torrent=91 reason=NoSeeder
//! ```
//!
//! The threshold comes from the `BTPUB_LOG` environment variable
//! (`error` / `warn` / `info` / `debug` / `trace`, default `warn`) read
//! once at first use, or from [`set_level`] at any time — no recompile
//! needed to change verbosity. Each emitted line also bumps the counter
//! `log.<level>`, so snapshots show how chatty a run was.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-corrupting conditions.
    Error = 0,
    /// Suspicious conditions the run survives.
    Warn = 1,
    /// High-level progress of the pipeline.
    Info = 2,
    /// Per-item detail useful when debugging.
    Debug = 3,
    /// Firehose.
    Trace = 4,
}

impl Level {
    /// Fixed-width display label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Metric suffix for the `log.<level>` counter.
    fn metric(self) -> &'static str {
        match self {
            Level::Error => "log.error",
            Level::Warn => "log.warn",
            Level::Info => "log.info",
            Level::Debug => "log.debug",
            Level::Trace => "log.trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }

    /// Parses a `BTPUB_LOG` value; unknown strings mean the default
    /// (use [`Level::parse_known`] to distinguish them).
    pub fn parse(s: &str) -> Option<Level> {
        Level::parse_known(s).unwrap_or(Some(DEFAULT_LEVEL))
    }

    /// Strict parse: `Some(Some(level))` for a level, `Some(None)` for
    /// `off`/`none`, `None` for an unrecognized value.
    pub fn parse_known(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" | "e" => Some(Some(Level::Error)),
            "warn" | "warning" | "w" => Some(Some(Level::Warn)),
            "info" | "i" => Some(Some(Level::Info)),
            "debug" | "d" => Some(Some(Level::Debug)),
            "trace" | "t" => Some(Some(Level::Trace)),
            "off" | "none" => Some(None),
            _ => None,
        }
    }
}

const DEFAULT_LEVEL: Level = Level::Warn;
/// Sentinel meaning "suppress everything" (BTPUB_LOG=off).
const OFF: u8 = u8::MAX;

/// Current threshold, encoded as the `Level` repr or [`OFF`].
static THRESHOLD: AtomicU8 = AtomicU8::new(0);
static INIT: OnceLock<()> = OnceLock::new();

fn threshold() -> u8 {
    INIT.get_or_init(|| {
        let level = match std::env::var("BTPUB_LOG") {
            Ok(v) => match Level::parse_known(&v) {
                Some(parsed) => parsed.map_or(OFF, |l| l as u8),
                None => {
                    // One-time by construction: this branch lives inside
                    // the OnceLock initializer.
                    eprintln!(
                        "btpub-obs: unrecognized BTPUB_LOG value {v:?} (accepted: \
                         error|warn|info|debug|trace|off); using default \"warn\""
                    );
                    DEFAULT_LEVEL as u8
                }
            },
            Err(_) => DEFAULT_LEVEL as u8,
        };
        THRESHOLD.store(level, Ordering::Relaxed);
    });
    THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the threshold at runtime; `None` silences logging.
pub fn set_level(level: Option<Level>) {
    INIT.get_or_init(|| ());
    THRESHOLD.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Current threshold, if logging is enabled at all.
pub fn current_level() -> Option<Level> {
    let t = threshold();
    (t != OFF).then(|| Level::from_u8(t))
}

/// Whether a record at `level` would be emitted. The macros check this
/// before formatting anything, so disabled levels cost one atomic load.
#[inline]
pub fn enabled(level: Level) -> bool {
    let t = threshold();
    t != OFF && (level as u8) <= t
}

/// Formats and writes one record; called by the macros after
/// [`enabled`] passed. `fields` are pre-rendered `key=value` pairs.
pub fn emit(
    level: Level,
    target: &str,
    message: &std::fmt::Arguments<'_>,
    fields: &[(&str, String)],
) {
    crate::global().counter(level.metric()).inc();
    // Warn+ records also land in the flight recorder, so a trace shows
    // *when* the run complained relative to everything else.
    if level <= Level::Warn {
        crate::trace::record_named(level.metric(), crate::trace::EventKind::Instant, 0);
    }
    let mut line = format!(
        "[{:>9.3}s {} {}] {}",
        crate::uptime_secs(),
        level.label(),
        target,
        message
    );
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    eprintln!("{line}");
}

/// Core logging macro; prefer the leveled wrappers.
///
/// `btpub_obs::log!(Level::Info, "message {}", 1; key = value, k2 = v2)`
/// — fields after `;` are rendered with `Debug`.
#[macro_export]
macro_rules! log {
    ($level:expr, $($fmt:expr),+ $(; $($key:ident = $val:expr),* $(,)?)?) => {
        if $crate::log::enabled($level) {
            $crate::log::emit(
                $level,
                module_path!(),
                &format_args!($($fmt),+),
                &[$($((stringify!($key), format!("{:?}", $val))),*)?],
            );
        }
    };
}

/// Logs at [`Level::Error`] with optional `; key = value` fields.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Error, $($arg)*) };
}

/// Logs at [`Level::Warn`] with optional `; key = value` fields.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Warn, $($arg)*) };
}

/// Logs at [`Level::Info`] with optional `; key = value` fields.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Info, $($arg)*) };
}

/// Logs at [`Level::Debug`] with optional `; key = value` fields.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Debug, $($arg)*) };
}

/// Logs at [`Level::Trace`] with optional `; key = value` fields.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Trace, $($arg)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases_and_off() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        // Lenient parse falls back; the strict form reports the miss
        // (which is what earns the one-time stderr warning at init).
        assert_eq!(Level::parse("garbage"), Some(DEFAULT_LEVEL));
        assert_eq!(Level::parse_known("garbage"), None);
        assert_eq!(Level::parse_known("off"), Some(None));
        assert_eq!(Level::parse_known("e"), Some(Some(Level::Error)));
    }

    #[test]
    fn set_level_filters_at_runtime() {
        set_level(Some(Level::Info));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));

        set_level(Some(Level::Trace));
        assert!(enabled(Level::Trace));

        set_level(None);
        assert!(!enabled(Level::Error));

        // Emitted lines bump the per-level counter; suppressed ones don't.
        set_level(Some(Level::Warn));
        let before = crate::global().counter("log.warn").value();
        crate::warn!("test warn {}", 1; torrent = 9);
        crate::debug!("suppressed");
        assert_eq!(crate::global().counter("log.warn").value(), before + 1);

        set_level(Some(DEFAULT_LEVEL));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }
}
