//! The append-only epoch-history log: length-prefixed, CRC-framed JSONL.
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: `len` bytes]
//! ```
//!
//! where `payload` is one line of deterministic JSON (the serde encoding
//! of a [`HistoryRecord`], newline-terminated) and `crc` is the CRC-32
//! (IEEE 802.3) of the payload bytes. The JSON stays `grep`/`jq`-able by
//! skipping 8 bytes per record; the frame makes torn tails detectable.
//!
//! Crash semantics (the whole point of the format): a `kill -9` can only
//! ever leave a *prefix* of an in-flight append on disk — the OS never
//! reorders bytes within a single `write`. [`read_history`] therefore
//! treats an incomplete final frame as a torn append and drops it
//! ([`LoadedHistory::dropped_bytes`]), while a CRC or structural mismatch
//! on a *complete* frame can only mean real corruption and is a hard
//! error. The daemon re-derives the dropped epoch deterministically from
//! the last intact checkpoint, so recovery reproduces the exact bytes an
//! uninterrupted run would have written.
//!
//! The byte path. Writing renders a record once: [`HistoryWriter`] keeps
//! one frame buffer, `Serialize` appends the JSON to it behind an 8-byte
//! placeholder, [`crc32`] (slice-by-8) runs over the payload, `len` and
//! `crc` are patched in, and the frame goes out in one `write_all`.
//! Reading has one walker, `Frames`, which streams the file and applies
//! the checks above to every frame — length plausible, frame complete,
//! CRC, newline, UTF-8, in that order — holding one payload at a time.
//! [`read_history`] decodes every payload the walker yields; resuming
//! (`read_tail`) decodes only the first and the last, so a restart costs
//! a CRC pass over the file and two JSON decodes, whatever the log's
//! length.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read as _, Seek, SeekFrom, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use mvcom_core::defense::DefenseCheckpoint;
use mvcom_core::se::SeCheckpoint;

use crate::alerts::AlertRecord;
use crate::epoch_clock::EpochClock;
use crate::error::{DaemonError, Result};

/// Version stamp carried by the [`RunHeader`]; bump on any incompatible
/// change to the framing or a record's JSON shape. Version 2 records each
/// SE selection as bitset words (see [`SeCheckpoint`]); version 1 logs,
/// which recorded index lists, are refused by version.
pub const HISTORY_VERSION: u32 = 2;

/// Upper bound on a single record's payload length. A complete frame
/// header announcing more than this is treated as corruption, not as a
/// record to allocate for.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// The wire tags of every history-record kind, in file order. The
/// OPERATIONS.md doc-sync test asserts each one is documented.
pub const RECORD_KINDS: &[&str] = &["Header", "Epoch"];

// ---- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------------

/// Slice-by-8 tables: `[0]` is the classic bytewise table, and `[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes — which lets
/// eight input bytes be folded in with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Folds `bytes` into the running (pre-inverted) state `c`, one at a time.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLES[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3) of `bytes` — the checksum used by the frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // The state only reaches the first four bytes; `as u8` keeps the
        // low byte of each shift.
        c = t[7][usize::from(chunk[0] ^ c as u8)]
            ^ t[6][usize::from(chunk[1] ^ (c >> 8) as u8)]
            ^ t[5][usize::from(chunk[2] ^ (c >> 16) as u8)]
            ^ t[4][usize::from(chunk[3] ^ (c >> 24) as u8)]
            ^ t[3][usize::from(chunk[4])]
            ^ t[2][usize::from(chunk[5])]
            ^ t[1][usize::from(chunk[6])]
            ^ t[0][usize::from(chunk[7])];
    }
    crc32_bytewise(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

// ---- records ------------------------------------------------------------

/// First record of every history file: the determinism-relevant slice of
/// the daemon configuration. Runtime knobs that do not influence the
/// produced bytes (`--epochs`, `--throttle-ms`, `--http`, obs settings)
/// are deliberately absent, so histories from differently-paced runs of
/// the same logical configuration compare byte-equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHeader {
    /// [`HISTORY_VERSION`] at write time.
    pub version: u32,
    /// Master seed of the seeded source, the SE engine, and the adversary.
    pub seed: u64,
    /// Committee population of the seeded source (0 for stdin sources).
    pub population: u32,
    /// Reports requested per ingest batch.
    pub batch_size: u32,
    /// Reports that fill (and close) one epoch.
    pub reports_per_epoch: u32,
    /// Logical seconds one ingest batch advances the clock by.
    pub batch_interval_s: f64,
    /// Throughput weight `α` of the per-epoch instance.
    pub alpha: f64,
    /// Final-block capacity per arrived committee (`Ĉ = c·|I|`).
    pub capacity_per_committee: u64,
    /// `N_min` as a fraction of the screened shard count.
    pub n_min_fraction: f64,
    /// Whether the defense layer screens reports.
    pub defense: bool,
    /// Fraction of committees the adversary controls (0 = honest run).
    pub adv_fraction: f64,
    /// Adversary strategy name ("" = honest run).
    pub adv_strategy: String,
    /// SE iteration budget override (0 = `SeConfig::paper` default).
    pub se_iterations: u64,
}

/// Everything the daemon needs to resume after the epoch this checkpoint
/// is embedded in: the source cursor, the logical clock, the defense
/// state, lifetime totals, and the final SE solver state of the epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonCheckpoint {
    /// Reports consumed from the source up to and including this epoch.
    pub cursor: u64,
    /// The logical clock *after* closing this epoch.
    pub clock: EpochClock,
    /// Defense state after `end_epoch`, when `--defense on`.
    pub defense: Option<DefenseCheckpoint>,
    /// Epochs closed so far (including this one).
    pub total_epochs: u64,
    /// Reports ingested so far.
    pub total_reports: u64,
    /// Truth transactions admitted so far.
    pub total_admitted_txs: u64,
    /// The SE engine's state at the end of this epoch's solve (absent for
    /// degenerate epochs solved without SE). Recovery does not need it —
    /// epochs re-solve deterministically — but it lets an operator rebuild
    /// the solver via `SeEngine::from_checkpoint` for inspection, and a
    /// resume refuses one that does not fit the epoch's screened shards.
    pub se: Option<SeCheckpoint>,
}

/// The per-epoch scheduling outcome, as written to history and rendered
/// by `epoch_close` telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSummary {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Logical clock when the epoch opened, s.
    pub t_open: f64,
    /// Logical clock when the epoch closed, s.
    pub t_close: f64,
    /// Reports ingested into the epoch.
    pub reports: u64,
    /// Truth transactions offered by those reports.
    pub offered_txs: u64,
    /// Reports the defense screened out before scheduling.
    pub quarantined: u64,
    /// Reports carrying adversarial (perturbed) claims.
    pub adversarial: u64,
    /// Committees the SE schedule admitted.
    pub admitted: u64,
    /// Truth transactions of the admitted committees.
    pub admitted_txs: u64,
    /// Objective value `U(f)` of the schedule over reported features.
    pub utility: f64,
    /// Epoch deadline `t_j` of the scheduled instance, s.
    pub ddl_s: f64,
    /// Final-block capacity `Ĉ` of the scheduled instance.
    pub capacity: u64,
    /// `N_min` of the scheduled instance.
    pub n_min: u64,
    /// CRC-32 over the admitted committee ids (sorted, u32 LE) — a compact
    /// fingerprint for diffing schedules across runs.
    pub schedule_crc: u32,
}

/// One closed epoch: the outcome, the alerts it fired, and the embedded
/// recovery checkpoint. A single record per epoch means an append is the
/// epoch's atom — there is no cross-record state to tear.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The scheduling outcome.
    pub summary: EpochSummary,
    /// Alerts fired by this epoch (empty when all thresholds held).
    pub alerts: Vec<AlertRecord>,
    /// Resume-from-here state.
    pub checkpoint: DaemonCheckpoint,
}

/// One record of the history log. Serialized with the externally-tagged
/// enum encoding, so the payload reads `{"Header":{…}}` / `{"Epoch":{…}}`
/// — the tag is the record kind (see [`RECORD_KINDS`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HistoryRecord {
    /// Run configuration; always the first record.
    Header(RunHeader),
    /// One closed epoch; every subsequent record. Boxed: an epoch record
    /// embeds a full [`DaemonCheckpoint`], far larger than a header.
    Epoch(Box<EpochRecord>),
}

impl HistoryRecord {
    /// The record's wire tag.
    pub fn kind(&self) -> &'static str {
        match self {
            HistoryRecord::Header(_) => "Header",
            HistoryRecord::Epoch(_) => "Epoch",
        }
    }
}

/// Bytes of frame header before the payload: `len` then `crc`.
const FRAME_HEADER: usize = 8;

/// Renders `record`'s complete frame into `frame`, reusing its allocation:
/// the JSON is written once, behind a placeholder header that is patched
/// when the payload's length and CRC are known.
fn encode_into(record: &HistoryRecord, frame: &mut Vec<u8>) -> Result<()> {
    frame.clear();
    // An empty `Vec` is valid UTF-8, so the `String` takes the buffer over
    // as it is and hands it back below.
    let mut text = String::from_utf8(std::mem::take(frame)).unwrap_or_default();
    text.push_str("\0\0\0\0\0\0\0\0");
    record.write_json(&mut text);
    text.push('\n');
    *frame = text.into_bytes();
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_LEN)
        .ok_or_else(|| DaemonError::history("record exceeds MAX_RECORD_LEN"))?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Encodes one record as its complete frame (header + JSON payload).
///
/// # Errors
///
/// [`DaemonError::History`] if the payload exceeds [`MAX_RECORD_LEN`].
pub fn encode_record(record: &HistoryRecord) -> Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_into(record, &mut frame)?;
    Ok(frame)
}

// ---- writer -------------------------------------------------------------

/// Appends framed records to a history file, one `write` per record.
#[derive(Debug)]
pub struct HistoryWriter {
    file: File,
    bytes: u64,
    /// The last appended frame; every append re-renders into it.
    frame: Vec<u8>,
}

impl HistoryWriter {
    /// Creates (truncating) a fresh history file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error as [`DaemonError::Io`].
    pub fn create(path: &Path) -> Result<HistoryWriter> {
        let file = File::create(path).map_err(DaemonError::io)?;
        Ok(HistoryWriter {
            file,
            bytes: 0,
            frame: Vec::new(),
        })
    }

    /// Opens an existing history for appending, first truncating it to
    /// `valid_bytes` (dropping any torn tail found by [`read_history`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error as [`DaemonError::Io`].
    pub fn append_existing(path: &Path, valid_bytes: u64) -> Result<HistoryWriter> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(DaemonError::io)?;
        file.set_len(valid_bytes).map_err(DaemonError::io)?;
        let mut file = file;
        file.seek(SeekFrom::End(0)).map_err(DaemonError::io)?;
        Ok(HistoryWriter {
            file,
            bytes: valid_bytes,
            frame: Vec::new(),
        })
    }

    /// Appends one record as a single `write` and flushes; returns the
    /// frame size in bytes.
    ///
    /// # Errors
    ///
    /// An oversized record ([`DaemonError::History`]) and I/O errors.
    pub fn append(&mut self, record: &HistoryRecord) -> Result<u64> {
        encode_into(record, &mut self.frame)?;
        self.file.write_all(&self.frame).map_err(DaemonError::io)?;
        self.file.flush().map_err(DaemonError::io)?;
        let len = self.frame.len() as u64;
        self.bytes += len;
        Ok(len)
    }

    /// Bytes written to the file so far (equals the file length).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

// ---- reader -------------------------------------------------------------

/// Walks a log frame by frame, verifying each before anything looks at it.
///
/// The checks, in order: the announced length is plausible (else a hard
/// error), the frame is complete (else it is the torn tail and the walk
/// ends), the CRC matches, the payload ends in a newline, the payload is
/// UTF-8 (each a hard error). One payload is held at a time, in a buffer
/// every frame reuses.
struct Frames<R> {
    input: R,
    /// Length of the verified prefix — the offset of the next frame.
    valid_bytes: u64,
    /// Bytes of the incomplete final frame, once the walk has ended on one.
    dropped_bytes: u64,
    /// Payload of the frame [`Frames::advance`] verified last.
    payload: String,
}

impl Frames<BufReader<File>> {
    fn open(path: &Path) -> Result<Self> {
        Ok(Frames::new(BufReader::new(
            File::open(path).map_err(DaemonError::io)?,
        )))
    }
}

impl<R: BufRead> Frames<R> {
    fn new(input: R) -> Frames<R> {
        Frames {
            input,
            valid_bytes: 0,
            dropped_bytes: 0,
            payload: String::new(),
        }
    }

    /// Verifies the next frame into `payload` and returns its offset;
    /// `None` once the intact prefix ends, cleanly or in a torn frame.
    fn advance(&mut self) -> Result<Option<u64>> {
        let offset = self.valid_bytes;
        let mut bytes = std::mem::take(&mut self.payload).into_bytes();
        let got = self.fill(&mut bytes, FRAME_HEADER as u64)?;
        let Ok(header) = <[u8; FRAME_HEADER]>::try_from(bytes.as_slice()) else {
            // End of file, or torn mid-header.
            self.dropped_bytes = got;
            return Ok(None);
        };
        let word = u64::from_le_bytes(header);
        // Low half, high half.
        let (len, crc) = (word as u32, (word >> 32) as u32);
        if len == 0 || len > MAX_RECORD_LEN {
            return Err(DaemonError::history(format!(
                "record at byte {offset} announces implausible length {len}"
            )));
        }
        // Grows as bytes arrive, never by what the header claims.
        let got = self.fill(&mut bytes, u64::from(len))?;
        if got < u64::from(len) {
            // Torn mid-payload.
            self.dropped_bytes = FRAME_HEADER as u64 + got;
            return Ok(None);
        }
        if crc32(&bytes) != crc {
            return Err(DaemonError::history(format!(
                "CRC mismatch on the record at byte {offset}: the log is corrupt"
            )));
        }
        if bytes.last() != Some(&b'\n') {
            return Err(DaemonError::history(format!(
                "record at byte {offset} is not newline-terminated"
            )));
        }
        self.payload = String::from_utf8(bytes)
            .map_err(|_| DaemonError::history(format!("record at byte {offset} is not UTF-8")))?;
        self.valid_bytes += FRAME_HEADER as u64 + u64::from(len);
        Ok(Some(offset))
    }

    /// Replaces `bytes` with the next `want` bytes of input, or as many as
    /// are left; returns how many that was.
    fn fill(&mut self, bytes: &mut Vec<u8>, want: u64) -> Result<u64> {
        bytes.clear();
        let got = (&mut self.input)
            .take(want)
            .read_to_end(bytes)
            .map_err(DaemonError::io)?;
        Ok(got as u64)
    }
}

fn decode(offset: u64, payload: &str) -> Result<HistoryRecord> {
    serde_json::from_str(payload)
        .map_err(|e| DaemonError::history(format!("record at byte {offset} fails to parse: {e}")))
}

/// The result of replaying a history file.
#[derive(Debug)]
pub struct LoadedHistory {
    /// Every intact record, in file order.
    pub records: Vec<HistoryRecord>,
    /// Length of the intact prefix — pass to
    /// [`HistoryWriter::append_existing`] to resume.
    pub valid_bytes: u64,
    /// Bytes of a torn final append that were dropped (0 for a clean
    /// shutdown).
    pub dropped_bytes: u64,
}

/// Reads, verifies and decodes a whole history file.
///
/// An incomplete final frame (fewer bytes than its header announces, or a
/// partial header) is a torn `kill -9` append: it is dropped and reported
/// via [`LoadedHistory::dropped_bytes`]. Anything else that fails to
/// verify — CRC mismatch, implausible length, payload not newline-
/// terminated, unparseable JSON — is corruption and returns an error:
/// a torn write cannot produce those states, so the file must not be
/// trusted for resumption.
///
/// # Errors
///
/// [`DaemonError::Io`] on read failures; [`DaemonError::History`] on
/// corruption.
pub fn read_history(path: &Path) -> Result<LoadedHistory> {
    let mut frames = Frames::open(path)?;
    let mut records = Vec::new();
    while let Some(offset) = frames.advance()? {
        records.push(decode(offset, &frames.payload)?);
    }
    Ok(LoadedHistory {
        records,
        valid_bytes: frames.valid_bytes,
        dropped_bytes: frames.dropped_bytes,
    })
}

/// What resuming takes from an existing log: every frame verified, only
/// the two records [`Daemon::open`](crate::Daemon::open) reads decoded.
#[derive(Debug)]
pub(crate) struct LogTail {
    /// The first record, if one is intact.
    pub first: Option<HistoryRecord>,
    /// The last intact record after the first, if any.
    pub last: Option<HistoryRecord>,
    /// As [`LoadedHistory::valid_bytes`].
    pub valid_bytes: u64,
    /// As [`LoadedHistory::dropped_bytes`].
    pub dropped_bytes: u64,
}

/// Walks `frames` to the end and decodes the first and the last payload.
/// Two payload buffers exist at any moment: the walker's, and `kept`, which
/// holds the latest verified payload while the walker reads on — they swap
/// as the walk advances.
fn scan_tail<R: BufRead>(frames: &mut Frames<R>, kept: &mut String) -> Result<LogTail> {
    let mut first = None;
    let mut last_offset = None;
    if let Some(offset) = frames.advance()? {
        first = Some(decode(offset, &frames.payload)?);
        while let Some(offset) = frames.advance()? {
            std::mem::swap(&mut frames.payload, kept);
            last_offset = Some(offset);
        }
    }
    Ok(LogTail {
        first,
        last: last_offset.map(|at| decode(at, kept)).transpose()?,
        valid_bytes: frames.valid_bytes,
        dropped_bytes: frames.dropped_bytes,
    })
}

/// Verifies a whole history file like [`read_history`] — same checks, same
/// errors, same torn-tail rule — but decodes only its first and last
/// records, in memory bounded by the largest frame rather than the file.
/// A CRC-valid frame in between whose JSON does not parse goes unnoticed
/// here; [`read_history`] reports it.
///
/// # Errors
///
/// As [`read_history`].
pub(crate) fn read_tail(path: &Path) -> Result<LogTail> {
    scan_tail(&mut Frames::open(path)?, &mut String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            version: HISTORY_VERSION,
            seed: 7,
            population: 64,
            batch_size: 8,
            reports_per_epoch: 32,
            batch_interval_s: 1.0,
            alpha: 1.5,
            capacity_per_committee: 1_000,
            n_min_fraction: 0.5,
            defense: false,
            adv_fraction: 0.0,
            adv_strategy: String::new(),
            se_iterations: 0,
        }
    }

    fn epoch(i: u64) -> EpochRecord {
        EpochRecord {
            summary: EpochSummary {
                epoch: i,
                t_open: i as f64 * 4.0,
                t_close: i as f64 * 4.0 + 4.0,
                reports: 32,
                offered_txs: 1_000 + i,
                quarantined: 0,
                adversarial: 0,
                admitted: 16,
                admitted_txs: 600 + i,
                utility: 123.5,
                ddl_s: 900.0,
                capacity: 32_000,
                n_min: 16,
                schedule_crc: 0xDEAD_BEEF,
            },
            alerts: Vec::new(),
            checkpoint: DaemonCheckpoint {
                cursor: 32 * (i + 1),
                clock: crate::epoch_clock::EpochClock::new(32, 1.0).unwrap(),
                defense: None,
                total_epochs: i + 1,
                total_reports: 32 * (i + 1),
                total_admitted_txs: 600 * (i + 1),
                se: None,
            },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_by_eight_equals_the_bytewise_reference() {
        // Every split of head / eight-byte body / tail, at every alignment.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buffer: Vec<u8> = (0..80)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[start..start + len];
                let reference = crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
                assert_eq!(crc32(bytes), reference, "start={start} len={len}");
            }
        }
        let long: Vec<u8> = buffer.iter().cycle().take(100_003).copied().collect();
        assert_eq!(
            crc32(&long),
            crc32_bytewise(0xFFFF_FFFF, &long) ^ 0xFFFF_FFFF
        );
    }

    #[test]
    fn the_writer_renders_every_frame_into_one_reused_buffer() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-reuse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut w = HistoryWriter::create(&path).unwrap();
        assert_eq!(w.frame.capacity(), 0, "a fresh writer owns no buffer");
        // Longest first: the later, shorter frames must fit where it was.
        let records = [
            HistoryRecord::Epoch(Box::new(epoch(10))),
            HistoryRecord::Header(header()),
            HistoryRecord::Epoch(Box::new(epoch(1))),
        ];
        let mut expected = Vec::new();
        w.append(&records[0]).unwrap();
        let (buffer, capacity) = (w.frame.as_ptr(), w.frame.capacity());
        expected.extend_from_slice(&encode_record(&records[0]).unwrap());
        for record in &records[1..] {
            w.append(record).unwrap();
            let frame = encode_record(record).unwrap();
            assert_eq!(w.frame, frame);
            // A frame: the payload's length, its CRC, the payload.
            let payload = &frame[FRAME_HEADER..];
            assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(frame[4..8], crc32(payload).to_le_bytes());
            assert_eq!(payload.last(), Some(&b'\n'));
            expected.extend_from_slice(&frame);
        }
        // Neither shorter record moved or regrew the buffer.
        assert_eq!((w.frame.as_ptr(), w.frame.capacity()), (buffer, capacity));
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(w.bytes(), expected.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_tail_scan_holds_two_payloads_however_long_the_log() {
        // 40 frames whose sizes rise and fall; the largest is the bound.
        let mut log = encode_record(&HistoryRecord::Header(header())).unwrap();
        let mut largest = 0;
        let mut last = None;
        for i in 0..40u64 {
            let mut record = epoch(i);
            record.alerts = vec![
                AlertRecord {
                    kind: "low_utility".to_string(),
                    threshold: 1.0,
                    observed: 0.5,
                };
                ((i * 37) % 200) as usize
            ];
            let record = HistoryRecord::Epoch(Box::new(record));
            let frame = encode_record(&record).unwrap();
            largest = largest.max(frame.len() - FRAME_HEADER);
            log.extend_from_slice(&frame);
            last = Some((log.len() - frame.len(), record));
        }
        assert!(log.len() > 20 * largest, "the log must dwarf one frame");
        let mut frames = Frames::new(log.as_slice());
        let mut kept = String::new();
        let tail = scan_tail(&mut frames, &mut kept).unwrap();
        assert_eq!(tail.first, Some(HistoryRecord::Header(header())));
        let (last_offset, last_record) = last.unwrap();
        assert_eq!(tail.last, Some(last_record));
        assert_eq!(kept.as_bytes(), &log[last_offset + FRAME_HEADER..]);
        assert_eq!(tail.valid_bytes, log.len() as u64);
        assert_eq!(tail.dropped_bytes, 0);
        // `read_to_end` grows a buffer by doubling, so each may have
        // overshot the largest payload by at most that factor.
        for capacity in [frames.payload.capacity(), kept.capacity()] {
            assert!(capacity <= 2 * largest + 64, "{capacity} vs {largest}");
        }
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut w = HistoryWriter::create(&path).unwrap();
        w.append(&HistoryRecord::Header(header())).unwrap();
        w.append(&HistoryRecord::Epoch(Box::new(epoch(0)))).unwrap();
        w.append(&HistoryRecord::Epoch(Box::new(epoch(1)))).unwrap();
        let loaded = read_history(&path).unwrap();
        assert_eq!(loaded.dropped_bytes, 0);
        assert_eq!(loaded.valid_bytes, w.bytes());
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[0], HistoryRecord::Header(header()));
        assert_eq!(loaded.records[2], HistoryRecord::Epoch(Box::new(epoch(1))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut w = HistoryWriter::create(&path).unwrap();
        w.append(&HistoryRecord::Header(header())).unwrap();
        let intact = w.bytes();
        w.append(&HistoryRecord::Epoch(Box::new(epoch(0)))).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut at every prefix length inside the second frame: all of them
        // must be recognized as a torn append of exactly that frame.
        for cut in intact as usize..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = read_history(&path).unwrap();
            assert_eq!(loaded.records.len(), 1, "cut={cut}");
            assert_eq!(loaded.valid_bytes, intact, "cut={cut}");
            assert_eq!(loaded.dropped_bytes, cut as u64 - intact, "cut={cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_is_a_hard_error() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut w = HistoryWriter::create(&path).unwrap();
        w.append(&HistoryRecord::Header(header())).unwrap();
        w.append(&HistoryRecord::Epoch(Box::new(epoch(0)))).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 20; // inside the second record's payload
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_history(&path).unwrap_err();
        assert!(format!("{err}").contains("CRC mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn implausible_length_is_a_hard_error() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-len");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &frame).unwrap();
        assert!(read_history(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_existing_truncates_the_torn_tail() {
        let dir = std::env::temp_dir().join("mvcom-daemon-history-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.log");
        let mut w = HistoryWriter::create(&path).unwrap();
        w.append(&HistoryRecord::Header(header())).unwrap();
        let intact = w.bytes();
        // Simulate a torn append: half a frame of garbage-prefix bytes.
        let frame = encode_record(&HistoryRecord::Epoch(Box::new(epoch(0)))).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = read_history(&path).unwrap();
        assert!(loaded.dropped_bytes > 0);
        let mut w = HistoryWriter::append_existing(&path, loaded.valid_bytes).unwrap();
        w.append(&HistoryRecord::Epoch(Box::new(epoch(0)))).unwrap();
        let reloaded = read_history(&path).unwrap();
        assert_eq!(reloaded.records.len(), 2);
        assert_eq!(reloaded.dropped_bytes, 0);
        assert_eq!(intact + frame.len() as u64, reloaded.valid_bytes);
        std::fs::remove_file(&path).unwrap();
    }
}
