//! Property tests: the JSON parser is total on every path that feeds it
//! bytes from outside the program — `from_str_value` itself (what
//! `obs_report` reads event files with), a `JsonlSource` ingest line, and a
//! CRC-valid history frame read back by `read_history` and by a resuming
//! `Daemon::open`. Any input ends in an `Ok` or an `Err`, never in a panic
//! or a stack overflow.
//!
//! The last is what gives these teeth: the parser used to recurse once per
//! `[` with no limit, and a single 60 KB line of brackets aborted the
//! daemon.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, IngestSource, JsonlSource,
};
use mvcom_obs::Obs;
use proptest::prelude::*;

/// Bytes biased toward the parser's edge paths: structure, string and
/// escape delimiters, number characters, literal prefixes, a non-ASCII
/// lead byte and its continuation.
const DELIMITER_SOUP: [u8; 24] = [
    b'[', b']', b'{', b'}', b'"', b'\\', b',', b':', b'-', b'+', b'.', b'e', b'0', b'9', b'u',
    b'n', b't', b'f', b' ', b'\n', b'd', b'8', 0xC3, 0xA9,
];

/// Runs `text` down every path; the results are beside the point.
fn survives(text: &str, tag: &str) {
    let _ = serde_json::from_str_value(text);

    let mut line = text.replace('\n', " ");
    line.push('\n');
    let mut source = JsonlSource::new(line.as_bytes());
    let _ = source.next_batch(&mut Vec::new(), 1);

    // One frame, valid in everything but what its payload says: it is the
    // log's first record and its last, the two a resume decodes.
    let mut payload = text.as_bytes().to_vec();
    payload.push(b'\n');
    let mut log = (payload.len() as u32).to_le_bytes().to_vec();
    log.extend_from_slice(&crc32(&payload).to_le_bytes());
    log.extend_from_slice(&payload);
    let frame = log.clone();
    log.extend_from_slice(&frame);
    let dir = std::env::temp_dir().join(format!("mvcom-hostile-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.log"));
    std::fs::write(&path, &log).unwrap();
    let _ = read_history(&path);
    let _ = Daemon::open(
        DaemonConfig::default(),
        Box::new(JsonlSource::new(std::io::empty())),
        &path,
        true,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    );
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        survives(&String::from_utf8_lossy(&bytes), "bytes");
    }

    #[test]
    fn parser_is_total_on_delimiter_soup(picks in proptest::collection::vec(any::<u8>(), 0..256)) {
        let bytes: Vec<u8> = picks
            .iter()
            .map(|b| DELIMITER_SOUP[usize::from(*b) % DELIMITER_SOUP.len()])
            .collect();
        survives(&String::from_utf8_lossy(&bytes), "soup");
    }

    #[test]
    fn parser_is_total_on_deep_nesting(
        picks in proptest::collection::vec(0usize..4, 1..6),
        depth in 129usize..100_000,
        close in any::<bool>(),
    ) {
        // 10⁵ levels of any mix of openers, closed properly or not at all.
        const OPEN: [&str; 4] = ["[", "{\"k\":", "[1,", "{\"a\":0,\"b\":[["];
        const CLOSE: [&str; 4] = ["]", "}", "]", "]]}"];
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(OPEN[picks[level % picks.len()]]);
        }
        if close {
            text.push('0');
            for level in (0..depth).rev() {
                text.push_str(CLOSE[picks[level % picks.len()]]);
            }
        }
        let err = serde_json::from_str_value(&text).unwrap_err().to_string();
        prop_assert!(err.contains("nesting deeper than 128 levels"), "{}", err);
        survives(&text, "deep");
    }
}
