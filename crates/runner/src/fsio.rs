//! Crash-safe file output.
//!
//! Report writers (`hvcsim sweep --out`, a single run's
//! `--trace-events`) must never leave a truncated file behind: a
//! half-written JSON document is worse than none, because downstream
//! tooling (`hvcsim table` among it) trusts whatever parses.
//! [`write_atomic`] gives both of them the standard
//! write-temp-then-rename protocol: the destination either keeps its
//! old contents or holds the complete new ones, never a prefix. A
//! destination that exists and is not a regular file (`/dev/null`, a
//! FIFO) is written in place instead: a rename would replace the device.

use std::io::Write as _;
use std::path::Path;

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file (same directory, so the rename cannot cross a
/// filesystem), are flushed, and the temp file is renamed over `path`.
/// A crash at any point leaves either the previous file or the complete
/// new one. The temp file is removed on any error. An existing `path`
/// that is not a regular file — a device or a FIFO — is opened and
/// written in place.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("path {} has no file name", path.display()),
        )
    })?;
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        return file.write_all(contents.as_ref());
    }
    // Process-unique temp name: concurrent writers of the same target
    // (two sweeps with the same --out) cannot trample each other's
    // in-progress bytes; last rename wins with a complete file.
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        // Push the bytes to disk before the rename publishes the name;
        // otherwise a power cut could publish an empty file.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hvc-fsio-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = temp_dir("basic");
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let dir = temp_dir("clean");
        write_atomic(dir.join("a.json"), b"x").unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.json".to_string()], "stray files: {names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_preserves_the_old_file() {
        let dir = temp_dir("fail");
        let path = dir.join("keep.json");
        write_atomic(&path, b"precious").unwrap();
        // Writing *into* a directory that does not exist fails at temp
        // creation — before the destination could possibly change.
        let err = write_atomic(dir.join("missing").join("keep.json"), b"x");
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A FIFO stays a FIFO, and its reader gets the bytes. (A test never
    /// targets `/dev/null` itself: a regression would replace the device.)
    #[cfg(unix)]
    #[test]
    fn writes_a_fifo_in_place() {
        use std::os::unix::fs::FileTypeExt as _;
        let dir = temp_dir("fifo");
        let path = dir.join("out.fifo");
        let made = std::process::Command::new("mkfifo").arg(&path).status();
        assert!(made.unwrap().success(), "mkfifo failed");
        // The reader blocks in `open` until a writer opens the FIFO. If
        // the FIFO were replaced, it would block forever: the test fails
        // on the file type first and leaves the reader behind.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader_path = path.clone();
        let reader = std::thread::spawn(move || tx.send(std::fs::read(reader_path).unwrap()));
        write_atomic(&path, b"report").unwrap();
        let kind = std::fs::symlink_metadata(&path).unwrap().file_type();
        assert!(kind.is_fifo(), "the FIFO was replaced by {kind:?}");
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got.unwrap(), b"report");
        reader.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_a_bare_root_path() {
        assert!(write_atomic("/", b"x").is_err());
    }
}
