//! Reading journals written by other (possibly dead) processes.
//!
//! A `journal.jsonl` is appended one line per event, and a process can
//! die — or be killed by the fault harness — between `write` and the
//! trailing newline. The final line of a journal is therefore allowed
//! to be **torn**: incomplete JSON, or complete JSON with no newline
//! that might still grow. [`read_journal`] surfaces such a tail as
//! data, not as an error; garbage *before* the final line is real
//! corruption and is reported as one.

use std::path::Path;

use crate::json::{self, Json};

/// A journal parsed from disk: every complete event plus whatever torn
/// tail the writer left behind.
#[derive(Debug)]
pub struct JournalRead {
    /// The complete, parsed events in file order.
    pub events: Vec<Json>,
    /// A final line that is not (yet) a complete event: either it has
    /// no trailing newline, or it fails to parse. Empty-string tails
    /// (file ends in `\n`) are reported as `None`.
    pub torn_tail: Option<String>,
}

impl JournalRead {
    /// The events of a given `kind`.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Json> {
        self.events.iter().filter(move |e| e.get("kind").and_then(Json::as_str) == Some(kind))
    }
}

/// Parses a whole journal file, tolerating a torn final line.
///
/// A newline-terminated line that fails to parse is corruption **unless
/// it is the file's last line**, in which case a writer died after the
/// newline of the previous event and mid-write of this one — that text
/// comes back as `torn_tail`. Likewise the unterminated remainder after
/// the last newline.
///
/// # Errors
///
/// I/O errors reading the file, or a parse failure on a line that is
/// not the final one (that is real corruption, not a torn write).
pub fn read_journal(path: &Path) -> std::io::Result<JournalRead> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut torn_tail = None;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let is_last = lines.peek().is_none();
        let body = line.strip_suffix('\n');
        let complete = body.is_some();
        let body = body.unwrap_or(line);
        if body.is_empty() {
            continue;
        }
        match json::parse(body) {
            Ok(event) if complete || !is_last => events.push(event),
            // Complete JSON with no newline: the writer may still be
            // mid-append. It is a tail, not yet an event.
            Ok(_) => torn_tail = Some(body.to_owned()),
            Err(_) if is_last => torn_tail = Some(body.to_owned()),
            Err(message) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: corrupt journal line (not the final line): {message}",
                        path.display()
                    ),
                ));
            }
        }
    }
    Ok(JournalRead { events, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("trrip-obs-tail-test");
        std::fs::create_dir_all(&dir).expect("test dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn reads_complete_journals_and_filters_by_kind() {
        let path = scratch("complete");
        std::fs::write(
            &path,
            "{\"seq\":0,\"kind\":\"a\"}\n{\"seq\":1,\"kind\":\"b\"}\n{\"seq\":2,\"kind\":\"a\"}\n",
        )
        .expect("fixture");
        let read = read_journal(&path).expect("read");
        assert_eq!(read.events.len(), 3);
        assert!(read.torn_tail.is_none());
        assert_eq!(read.of_kind("a").count(), 2);
        assert_eq!(read.of_kind("b").count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_a_tail_not_an_error() {
        let path = scratch("torn");
        // A writer died mid-line: incomplete JSON, no newline.
        std::fs::write(&path, "{\"seq\":0,\"kind\":\"a\"}\n{\"seq\":1,\"ki").expect("fixture");
        let read = read_journal(&path).expect("torn tail must parse");
        assert_eq!(read.events.len(), 1);
        assert_eq!(read.torn_tail.as_deref(), Some("{\"seq\":1,\"ki"));

        // A writer died between write and newline: complete JSON, no
        // newline. Still a tail — the line might yet grow.
        std::fs::write(&path, "{\"seq\":0,\"kind\":\"a\"}\n{\"seq\":1,\"kind\":\"b\"}")
            .expect("fixture");
        let read = read_journal(&path).expect("read");
        assert_eq!(read.events.len(), 1);
        assert_eq!(read.torn_tail.as_deref(), Some("{\"seq\":1,\"kind\":\"b\"}"));

        // A torn line that got its newline but is still garbage, mid
        // file: that is corruption, not tearing.
        std::fs::write(&path, "{\"seq\":0,\"ki\n{\"seq\":1,\"kind\":\"b\"}\n").expect("fixture");
        let err = read_journal(&path).expect_err("mid-file garbage must error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_missing_journals() {
        let path = scratch("empty");
        std::fs::write(&path, "").expect("fixture");
        let read = read_journal(&path).expect("empty is fine");
        assert!(read.events.is_empty() && read.torn_tail.is_none());
        let _ = std::fs::remove_file(&path);
        assert!(read_journal(&path).is_err(), "a missing journal is an I/O error");
    }
}
