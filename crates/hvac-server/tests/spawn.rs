//! End-to-end test of the standalone `hvac-server` binary: spawn it as a
//! real child process, resolve its advertised endpoint from the client
//! side, complete byte-exact reads over TCP and Unix-domain sockets, and
//! shut it down with SIGTERM.
//!
//! Server stderr is written to `$CARGO_TARGET_TMPDIR/hvac-server-logs/` so
//! CI can archive the logs when a run fails.

use bytes::Bytes;
use hvac_core::{HvacClient, HvacClientOptions};
use hvac_net::Fabric;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where this test run keeps its scratch space and server logs.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic 3 MiB payload: large enough to split into chunk RPCs.
fn payload() -> Vec<u8> {
    (0..3 * 1024 * 1024u32)
        .map(|i| (i * 131 + 17) as u8)
        .collect()
}

struct SpawnedServer {
    child: Child,
    uri: String,
    name: String,
}

impl SpawnedServer {
    /// Launch the binary, redirecting stderr to a log file, and wait for
    /// the `HVAC_LISTEN <name> <uri>` announcement on stdout.
    fn launch(tag: &str, listen: &str, root: &Path) -> SpawnedServer {
        let logs = scratch(&format!("{tag}/hvac-server-logs"));
        let log = fs::File::create(logs.join("server.stderr.log")).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_hvac-server"))
            .args(["--listen", listen])
            .args(["--root", &root.display().to_string()])
            .args(["--capacity-mib", "64"])
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .expect("spawn hvac-server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read announcement");
        let mut parts = line.split_whitespace();
        assert_eq!(
            parts.next(),
            Some("HVAC_LISTEN"),
            "bad announcement {line:?}"
        );
        let name = parts.next().expect("name in announcement").to_string();
        let uri = parts.next().expect("uri in announcement").to_string();
        SpawnedServer { child, uri, name }
    }

    /// SIGTERM the child and assert it exits cleanly within 5 seconds.
    fn terminate(mut self) {
        // SAFETY: plain kill(2) on a child pid this test owns.
        unsafe {
            assert_eq!(libc::kill(self.child.id() as libc::pid_t, libc::SIGTERM), 0);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server ignored SIGTERM for 5s");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Spawn a server over `listen`, read one file through a socket client,
/// verify the bytes, and shut the server down.
fn round_trip_via(tag: &str, listen: &str) {
    let dir = scratch(tag);
    let root = dir.join("pfs");
    let want = payload();
    fs::create_dir_all(root.join("data")).unwrap();
    fs::write(root.join("data/sample.bin"), &want).unwrap();

    let server = SpawnedServer::launch(tag, listen, &root);

    // Client side: a fresh fabric in *this* process that only knows the
    // advertised URI — exactly what a second process would be told.
    let fabric = Arc::new(Fabric::socket_from_env().unwrap());
    fabric.register_endpoint(&server.name, &server.uri).unwrap();
    let client = HvacClient::new(fabric, HvacClientOptions::new("/data", 1, 1)).unwrap();

    let got = client.read_file(Path::new("/data/sample.bin")).unwrap();
    assert_eq!(got, Bytes::from(want), "bytes differ over {listen}");

    server.terminate();
}

#[test]
fn serves_reads_over_tcp_and_exits_on_sigterm() {
    round_trip_via("tcp", "tcp:127.0.0.1:0");
}

#[test]
fn serves_reads_over_unix_socket_and_exits_on_sigterm() {
    let sock = scratch("uds").join("srv.sock");
    round_trip_via("uds", &format!("unix:{}", sock.display()));
    assert!(!sock.exists(), "socket file must be unlinked on shutdown");
}

#[test]
fn rejects_a_bad_command_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_hvac-server"))
        .args(["--listen", "tcp:127.0.0.1:0"]) // no --root anywhere
        .env_remove("HVAC_PFS_ROOT")
        .output()
        .expect("run hvac-server");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("PFS root"), "{stderr}");
}
