//! Standalone HVAC cache server.
//!
//! Serves one [`hvac_core::HvacServer`] instance over a real socket (TCP or
//! Unix-domain) so clients in *other processes* can mount the cache — the
//! deployment shape of the paper, where one `hvac_server` runs per node of
//! the allocation (§III-B). The in-process `Cluster` harness remains the
//! test vehicle; this binary is the piece that escapes the process.
//!
//! Configuration comes from flags with environment fallbacks:
//!
//! | flag               | env                | default        |
//! |--------------------|--------------------|----------------|
//! | `--name NAME`      | `HVAC_SERVER_NAME` | `node0/srv0`   |
//! | `--listen URI`     | `HVAC_LISTEN`      | `tcp:127.0.0.1:0` (ephemeral) |
//! | `--root DIR`       | `HVAC_PFS_ROOT`    | *(required)*   |
//! | `--capacity-mib N` | `HVAC_CACHE_MIB`   | `1024`         |
//! | `--movers N`       | `HVAC_MOVERS`      | `4` (`DEFAULT_MOVERS`) |
//! | `--job-weights S`  | `HVAC_JOB_WEIGHTS` | *(empty: QoS off)* |
//!
//! `--job-weights` takes a per-tenant fair-share plan in the
//! `job=weight[@quota]` grammar, e.g. `--job-weights 1=4,2=1@0.25`: job 1
//! gets 4× the device share of job 2, and job 2's cache quota is capped at
//! 25% of capacity. Zero or negative weights, quotas outside (0, 1], and
//! duplicate jobs are configuration errors (exit code 2).
//!
//! On startup the server prints one machine-readable line to stdout —
//! `HVAC_LISTEN <name> <uri>` — announcing the *actual* bound address
//! (meaningful when an ephemeral port was requested), then serves until
//! SIGTERM or SIGINT, shutting the endpoint down cleanly (listener closed,
//! connections shut and their threads joined, Unix socket file unlinked).
//! Each client connection is served on a thread of its own, so there is no
//! RPC worker count to set.

use hvac_core::server::DEFAULT_MOVERS;
use hvac_core::{make_policy, CacheManager, HvacServer, HvacServerOptions};
use hvac_net::socket::{EndpointUri, SocketConfig, SocketFamily};
use hvac_net::Fabric;
use hvac_pfs::DirStore;
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, EvictionPolicyKind, HvacError, JobWeights, Result};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Flipped by the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Async-signal-safe handler: a relaxed store is all that happens here.
extern "C" fn on_signal(_sig: libc::c_int) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Parsed command line (flags override environment, environment overrides
/// defaults).
struct ServerConfig {
    name: String,
    listen: String,
    root: String,
    capacity_mib: u64,
    movers: usize,
    job_weights: JobWeights,
}

/// One `--flag value` / env / default lookup.
fn setting(
    args: &[(String, String)],
    flag: &str,
    env: &str,
    default: Option<&str>,
) -> Result<Option<String>> {
    if let Some((_, v)) = args.iter().find(|(f, _)| f == flag) {
        return Ok(Some(v.clone()));
    }
    if let Ok(v) = std::env::var(env) {
        return Ok(Some(v));
    }
    Ok(default.map(str::to_string))
}

fn parse_config(argv: &[String]) -> Result<ServerConfig> {
    let mut args = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            return Err(HvacError::InvalidConfig(format!(
                "unexpected argument {a:?} (flags are --name --listen --root --capacity-mib --movers --job-weights)"
            )));
        }
        let Some(v) = it.next() else {
            return Err(HvacError::InvalidConfig(format!("flag {a} needs a value")));
        };
        args.push((a.clone(), v.clone()));
    }
    let known = [
        "--name",
        "--listen",
        "--root",
        "--capacity-mib",
        "--movers",
        "--job-weights",
    ];
    if let Some((f, _)) = args.iter().find(|(f, _)| !known.contains(&f.as_str())) {
        return Err(HvacError::InvalidConfig(format!("unknown flag {f}")));
    }

    let name =
        setting(&args, "--name", "HVAC_SERVER_NAME", Some("node0/srv0"))?.unwrap_or_default();
    let listen =
        setting(&args, "--listen", "HVAC_LISTEN", Some("tcp:127.0.0.1:0"))?.unwrap_or_default();
    let Some(root) = setting(&args, "--root", "HVAC_PFS_ROOT", None)? else {
        return Err(HvacError::InvalidConfig(
            "no PFS root: pass --root DIR or set HVAC_PFS_ROOT".into(),
        ));
    };
    let parse_num = |key: &str, raw: String| -> Result<u64> {
        raw.parse::<u64>().map_err(|_| {
            HvacError::InvalidConfig(format!("{key} wants an unsigned integer, got {raw:?}"))
        })
    };
    let capacity_mib = match setting(&args, "--capacity-mib", "HVAC_CACHE_MIB", Some("1024"))? {
        Some(raw) => parse_num("--capacity-mib", raw)?,
        None => 1024,
    };
    let movers = match setting(&args, "--movers", "HVAC_MOVERS", None)? {
        Some(raw) => parse_num("--movers", raw)? as usize,
        None => DEFAULT_MOVERS,
    };
    // Reject malformed plans (zero/negative weights, quotas outside (0, 1],
    // duplicate jobs) here so they exit 2 like every other config error.
    let job_weights = match setting(&args, "--job-weights", "HVAC_JOB_WEIGHTS", None)? {
        Some(raw) => JobWeights::parse(&raw)?,
        None => JobWeights::default(),
    };
    Ok(ServerConfig {
        name,
        listen,
        root,
        capacity_mib,
        movers,
        job_weights,
    })
}

fn run(config: ServerConfig) -> Result<()> {
    let listen = EndpointUri::parse(&config.listen)?;
    let family = match &listen {
        EndpointUri::Tcp(_) => SocketFamily::Tcp,
        EndpointUri::Unix(_) => SocketFamily::Unix,
    };
    let fabric = Arc::new(Fabric::socket_with(SocketConfig {
        family,
        ..SocketConfig::default()
    }));
    fabric.register_endpoint(&config.name, &config.listen)?;

    let pfs = Arc::new(DirStore::new(&config.root)?);
    let store = LocalStore::in_memory(ByteSize::mib(config.capacity_mib));
    store.set_tenant_quotas(&config.job_weights);
    let cache = Arc::new(CacheManager::new(
        store,
        make_policy(EvictionPolicyKind::default(), 0x4856_4143),
    ));
    let server = HvacServer::new(
        cache,
        pfs,
        HvacServerOptions {
            movers: config.movers,
            job_weights: config.job_weights.clone(),
            ..HvacServerOptions::default()
        },
        &config.name,
    )?;
    let endpoint = server.serve(&fabric, &config.name)?;

    let advertised = fabric.endpoint_uri(&config.name).ok_or_else(|| {
        HvacError::InvalidConfig(format!("endpoint {} vanished after serve", config.name))
    })?;
    // The one machine-readable line a supervisor (or the spawn test) waits
    // for; flushed so a pipe reader sees it immediately.
    {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "HVAC_LISTEN {} {advertised}", config.name);
        let _ = out.flush();
    }
    eprintln!(
        "hvac-server: {} serving {} at {advertised} ({} MiB cache, {} movers, QoS {})",
        config.name,
        config.root,
        config.capacity_mib,
        config.movers,
        if config.job_weights.is_empty() {
            "off".to_string()
        } else {
            format!("{} tenants", config.job_weights.shares.len())
        }
    );

    // SAFETY: `on_signal` only performs a relaxed atomic store, which is
    // async-signal-safe; `signal(2)` itself has no preconditions here.
    unsafe {
        libc::signal(libc::SIGTERM, on_signal as *const () as libc::sighandler_t);
        libc::signal(libc::SIGINT, on_signal as *const () as libc::sighandler_t);
    }
    while !SHUTDOWN.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("hvac-server: {} shutting down", config.name);
    drop(endpoint);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hvac-server: {e}");
            return ExitCode::from(2);
        }
    };
    match run(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hvac-server: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let c = parse_config(&argv(&["--root", "/tmp/pfs"])).unwrap();
        assert_eq!(c.name, "node0/srv0");
        assert_eq!(c.listen, "tcp:127.0.0.1:0");
        assert_eq!(c.root, "/tmp/pfs");
        assert_eq!((c.capacity_mib, c.movers), (1024, DEFAULT_MOVERS));
    }

    #[test]
    fn missing_root_and_bad_flags_are_config_errors() {
        assert!(parse_config(&argv(&[])).is_err());
        assert!(parse_config(&argv(&["--root"])).is_err());
        assert!(parse_config(&argv(&["--root", "/x", "--bogus", "1"])).is_err());
        assert!(parse_config(&argv(&["--root", "/x", "--movers", "lots"])).is_err());
        // Each connection is served on its own thread: no worker count.
        assert!(parse_config(&argv(&["--root", "/x", "--workers", "2"])).is_err());
        assert!(parse_config(&argv(&["stray"])).is_err());
    }

    #[test]
    fn job_weights_flag_parses_a_plan() {
        let c = parse_config(&argv(&["--root", "/x"])).unwrap();
        assert!(c.job_weights.is_empty(), "no flag = QoS off");
        let c = parse_config(&argv(&["--root", "/x", "--job-weights", "1=4,2=1@0.25"])).unwrap();
        assert_eq!(c.job_weights.shares.len(), 2);
        assert_eq!(c.job_weights.weight_of(1), 4.0);
        assert_eq!(c.job_weights.quota_frac_of(2), Some(0.25));
    }

    #[test]
    fn bad_job_weights_are_config_errors() {
        // Exit-2 regression: zero and negative weights, out-of-range
        // quotas, duplicate jobs, and junk must all fail parse_config —
        // main() maps that to exit code 2.
        for bad in [
            "1=0", "1=-2", "1=nan", "1=1@0", "1=1@1.5", "1=1,1=2", "garbage", "=3",
        ] {
            assert!(
                parse_config(&argv(&["--root", "/x", "--job-weights", bad])).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn flags_override_everything() {
        let c = parse_config(&argv(&[
            "--root",
            "/d",
            "--name",
            "node3/srv1",
            "--listen",
            "unix:/tmp/h.sock",
            "--capacity-mib",
            "64",
            "--movers",
            "3",
        ]))
        .unwrap();
        assert_eq!(c.name, "node3/srv1");
        assert_eq!(c.listen, "unix:/tmp/h.sock");
        assert_eq!((c.capacity_mib, c.movers), (64, 3));
    }
}
