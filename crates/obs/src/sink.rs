//! Event sinks: where encoded JSONL lines go.
//!
//! A sink is any `io::Write`; the [`Obs`](crate::Obs) handle owns it
//! together with the sequence counter, on one thread, so line order and
//! `seq` always agree. File sinks buffer through an 8 KiB `BufWriter`;
//! lines are durable after [`Obs::flush`](crate::Obs::flush) or when the
//! last `Obs` handle drops (buffered bytes flush on drop).

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// An in-memory sink readable while (and after) events are emitted —
/// the test and post-processing workhorse.
///
/// Cloning shares the underlying buffer.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> SharedBuffer {
        SharedBuffer::default()
    }

    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.bytes.borrow()).into_owned()
    }

    /// The JSONL lines written so far.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(|l| l.to_string()).collect()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Opens a buffered JSONL file sink, truncating any existing file.
///
/// # Errors
///
/// Propagates the underlying `File::create` error.
pub fn file_sink(path: &std::path::Path) -> io::Result<Box<dyn Write>> {
    let file = std::fs::File::create(path)?;
    Ok(Box::new(io::BufWriter::new(file)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_buffer_accumulates_lines() {
        let buffer = SharedBuffer::new();
        let mut writer = buffer.clone();
        writer.write_all(b"a\nb\n").unwrap();
        assert_eq!(buffer.lines(), ["a", "b"]);
    }
}
