//! The incident archive `btpub-ops` writes and triages: magic, format
//! version, a section count, length-prefixed named sections, and a
//! whole-file CRC-32 trailer (the checkpoint framing).
//!
//! The CRC catches decay, not tampering: anyone can write a matching
//! trailer. So no field is trusted for an allocation size before the
//! bytes it describes are known to be there.

use btpub_stream::checkpoint::{crc32, CheckpointError, Dec, Enc};

/// On-disk magic for an incident archive.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"BTPUBINC";
/// Bumped whenever the section encoding changes shape.
pub const ARCHIVE_VERSION: u32 = 1;

/// The fewest bytes a section takes: its name and its data each carry an
/// 8-byte length.
const MIN_SECTION_BYTES: usize = 16;

/// One named section: a manifest, a scrape, a black-box dump.
pub type Section = (String, Vec<u8>);

/// Why an archive was refused.
#[derive(Debug)]
pub enum ArchiveError {
    /// The bytes do not start with [`ARCHIVE_MAGIC`].
    BadMagic,
    /// The trailing CRC-32 does not cover the bytes.
    Corrupt { stored: u32, computed: u32 },
    /// Format version differs from this binary's.
    Version { found: u32 },
    /// The CRC passed but the sections do not decode.
    Decode(CheckpointError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic (not a btpub-ops archive)"),
            Self::Corrupt { stored, computed } => write!(
                f,
                "crc mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                 file is corrupt or truncated"
            ),
            Self::Version { found } => write!(
                f,
                "format version mismatch (file v{found}, binary v{ARCHIVE_VERSION})"
            ),
            Self::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// The archive bytes for `sections`, in order, CRC trailer included.
pub fn encode(sections: &[Section]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(u32::try_from(sections.len()).expect("fewer than 2^32 sections"));
    for (name, bytes) in sections {
        enc.str(name);
        enc.bytes(bytes);
    }
    let mut file = Vec::new();
    file.extend_from_slice(ARCHIVE_MAGIC);
    file.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
    file.extend_from_slice(&enc.into_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    file
}

/// Validates magic, version and the whole-file CRC before parsing a
/// single section, so a torn or bit-flipped archive is refused by name,
/// never misparsed.
pub fn decode(data: &[u8]) -> Result<Vec<Section>, ArchiveError> {
    if data.len() < ARCHIVE_MAGIC.len() + 8 || &data[..8] != ARCHIVE_MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    let body = &data[..data.len() - 4];
    let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4-byte trailer"));
    let computed = crc32(body);
    if stored != computed {
        return Err(ArchiveError::Corrupt { stored, computed });
    }
    let found = u32::from_le_bytes(body[8..12].try_into().expect("4-byte version"));
    if found != ARCHIVE_VERSION {
        return Err(ArchiveError::Version { found });
    }
    sections(&mut Dec::new(&body[12..])).map_err(ArchiveError::Decode)
}

fn sections(dec: &mut Dec) -> Result<Vec<Section>, CheckpointError> {
    let count = dec.u32()? as usize;
    if count > dec.remaining() / MIN_SECTION_BYTES {
        return Err(CheckpointError::Decode {
            what: "section count",
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = dec.str()?;
        let bytes = dec.bytes()?;
        out.push((name, bytes));
    }
    Ok(out)
}
