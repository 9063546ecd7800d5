//! Integration tests for the real socket transport behind [`Fabric`].
//!
//! Everything the loopback fabric promises — byte-exact replies, the
//! stats-ledger invariant, all five fault-injector actions, down-latch
//! semantics — must hold identically when the frames travel through the
//! kernel. These tests run each contract over TCP and Unix-domain sockets,
//! including the cross-fabric case (a client fabric resolving a server
//! served by a *different* fabric, which is the in-process stand-in for
//! cross-process deployment).

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hvac_net::socket::{EndpointUri, SocketConfig, SocketFamily};
use hvac_net::{framing, Bulk, Fabric, FaultSpec, Reply, RpcHandler};
use hvac_types::HvacError;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Echo handler: header = request reversed, bulk = request repeated twice,
/// as two parts of one gather list. Asymmetric on purpose so a mixed-up
/// header/bulk split cannot pass.
fn echo_handler() -> Arc<dyn RpcHandler> {
    Arc::new(|req: Bytes| -> Reply {
        let mut header: Vec<u8> = req.to_vec();
        header.reverse();
        Reply {
            header: Bytes::from(header),
            bulk: if req.is_empty() {
                None
            } else {
                Some(Bulk::from(vec![req.clone(), req]))
            },
        }
    })
}

fn round_trip_on(family: SocketFamily) {
    let fabric = Arc::new(Fabric::socket(family));
    let _ep = fabric.serve("node0/srv0", echo_handler()).unwrap();

    // Metadata-only reply.
    let reply = fabric.call("node0/srv0", Bytes::new()).unwrap();
    assert!(reply.header.is_empty());
    assert!(reply.bulk.is_none());

    // Multi-megabyte bulk payload: spans many kernel read()s, so a framing
    // bug that only shows up on short reads cannot hide.
    let big: Vec<u8> = (0..3 * 1024 * 1024u32)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let reply = fabric.call("node0/srv0", Bytes::from(big.clone())).unwrap();
    let want_header: Vec<u8> = big.iter().rev().copied().collect();
    assert_eq!(reply.header.as_ref(), want_header.as_slice());
    let bulk = reply.bulk.expect("bulk expected").to_vec();
    assert_eq!(&bulk[..big.len()], big.as_slice());
    assert_eq!(&bulk[big.len()..], big.as_slice());

    let (rpcs, req_b, reply_b, bulk_b, failed) = fabric.stats().snapshot();
    assert_eq!((rpcs, failed), (2, 0));
    assert_eq!(req_b, big.len() as u64);
    assert_eq!(reply_b, big.len() as u64);
    assert_eq!(bulk_b, 2 * big.len() as u64);
}

#[test]
fn tcp_round_trip_is_byte_exact() {
    round_trip_on(SocketFamily::Tcp);
}

#[test]
fn unix_round_trip_is_byte_exact() {
    round_trip_on(SocketFamily::Unix);
}

/// An 8 MiB reply in uneven parts — empty and one-byte parts included —
/// is far more than one socket buffer, so the server's vectored writes come
/// back short and resume mid-part; the caller must get every byte in order.
fn gathered_reply_round_trips_on(family: SocketFamily) {
    let payload: Bytes = (0..8u32 << 20)
        .map(|i| (i * 131 + i / 4099) as u8)
        .collect();
    let cuts = [0, 1, 1, 4097, 1 << 20, (1 << 20) + 3, 5_000_000, 8 << 20];
    let parts: Vec<Bytes> = cuts.windows(2).map(|w| payload.slice(w[0]..w[1])).collect();
    let handler: Arc<dyn RpcHandler> = Arc::new(move |req: Bytes| -> Reply {
        Reply {
            header: req,
            bulk: Some(Bulk::from(parts.clone())),
        }
    });
    let fabric = Arc::new(Fabric::socket(family));
    let _ep = fabric.serve("big", handler).unwrap();
    for _ in 0..2 {
        let reply = fabric.call("big", Bytes::from_static(b"hdr")).unwrap();
        assert_eq!(reply.header.as_ref(), b"hdr");
        let bulk = reply.bulk.expect("bulk expected");
        assert_eq!(bulk.len(), payload.len());
        assert!(bulk.to_vec() == payload.to_vec(), "8 MiB reply corrupted");
    }
    let (rpcs, _, _, bulk_b, failed) = fabric.stats().snapshot();
    assert_eq!((rpcs, failed, bulk_b), (2, 0, 2 * payload.len() as u64));
}

#[test]
fn tcp_gathered_reply_of_8_mib_in_uneven_parts_round_trips() {
    gathered_reply_round_trips_on(SocketFamily::Tcp);
}

#[test]
fn unix_gathered_reply_of_8_mib_in_uneven_parts_round_trips() {
    gathered_reply_round_trips_on(SocketFamily::Unix);
}

#[test]
fn sequential_calls_reuse_one_connection_and_k_callers_open_at_most_k() {
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let fabric = Arc::new(Fabric::socket(family));
        let _ep = fabric.serve("s", echo_handler()).unwrap();

        // One thread's calls check the same connection out and back in.
        for i in 0..20u8 {
            let reply = fabric.call("s", Bytes::from(vec![i, 1])).unwrap();
            assert_eq!(reply.header.as_ref(), &[1, i], "{family:?}");
        }
        let connects = fabric.stats().connects.load(Ordering::Relaxed);
        assert_eq!(connects, 1, "{family:?}: sequential calls redialled");

        // Eight concurrent callers: each reply reaches its own caller, and
        // no more connections open than there are callers.
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let fabric = fabric.clone();
                std::thread::spawn(move || {
                    for i in 0..25u8 {
                        let payload = Bytes::from(vec![t, i, t ^ i, 0xAB]);
                        let reply = fabric.call("s", payload.clone()).unwrap();
                        let mut want: Vec<u8> = payload.to_vec();
                        want.reverse();
                        assert_eq!(reply.header.as_ref(), want.as_slice());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (rpcs, req_b, _, _, failed) = fabric.stats().snapshot();
        assert_eq!((rpcs, failed), (220, 0), "{family:?}");
        assert_eq!(req_b, 20 * 2 + 200 * 4, "{family:?}");
        let connects = fabric.stats().connects.load(Ordering::Relaxed);
        assert!(
            (1..=8).contains(&connects),
            "{family:?}: 8 callers opened {connects} connections"
        );
    }
}

/// A handler that parks every `b"park"` request until the test opens the
/// gate (telling the test once it is parked) and echoes everything else.
fn gated_handler() -> (Arc<dyn RpcHandler>, Receiver<()>, Sender<()>) {
    let (parked_tx, parked_rx) = unbounded::<()>();
    let (gate_tx, gate_rx) = unbounded::<()>();
    let handler: Arc<dyn RpcHandler> = Arc::new(move |req: Bytes| -> Reply {
        if req.as_ref() == b"park" {
            let _ = parked_tx.send(());
            let _ = gate_rx.recv_timeout(Duration::from_secs(30));
        }
        Reply {
            header: req,
            bulk: None,
        }
    });
    (handler, parked_rx, gate_tx)
}

#[test]
fn a_late_reply_to_a_timed_out_call_never_reaches_the_next_call() {
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let (handler, parked, gate) = gated_handler();
        let fabric = Arc::new(Fabric::socket(family));
        let _ep = fabric.serve("s", handler).unwrap();
        // Warm the pool, so the timed-out call runs on a pooled connection.
        fabric.call("s", Bytes::from_static(b"warm")).unwrap();

        let err = fabric
            .call_with_deadline("s", Bytes::from_static(b"park"), Duration::from_millis(50))
            .unwrap_err();
        assert!(
            matches!(err, HvacError::RpcTimeout { .. }),
            "{family:?}: {err}"
        );
        // Let the parked handler answer now, late, and give its reply time
        // to reach the wire before the next call.
        parked.recv_timeout(Duration::from_secs(5)).unwrap();
        gate.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        for msg in [&b"next"[..], b"after"] {
            let reply = fabric.call("s", Bytes::from_static(msg)).unwrap();
            assert_eq!(reply.header.as_ref(), msg, "{family:?}: got a stale reply");
        }
        let (rpcs, _, _, _, failed) = fabric.stats().snapshot();
        assert_eq!((rpcs, failed), (3, 1), "{family:?}");
        // The timed-out call's connection was closed, not pooled.
        assert_eq!(
            fabric.stats().connects.load(Ordering::Relaxed),
            2,
            "{family:?}"
        );
    }
}

#[test]
fn a_parked_handler_does_not_delay_a_second_caller_to_the_same_endpoint() {
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let (handler, parked, gate) = gated_handler();
        let fabric = Arc::new(Fabric::socket(family));
        // Each connection has its own thread: behind a one-worker pool the
        // second call would queue behind the parked one until its deadline.
        let _ep = fabric.serve("s", handler).unwrap();
        let first = {
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                fabric.call_with_deadline("s", Bytes::from_static(b"park"), Duration::from_secs(20))
            })
        };
        parked.recv_timeout(Duration::from_secs(5)).unwrap();

        // The gate is still shut, so this reply cannot wait on the first.
        let reply = fabric
            .call_with_deadline("s", Bytes::from_static(b"quick"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply.header.as_ref(), b"quick", "{family:?}");
        assert!(!first.is_finished(), "{family:?}: the gate opened early");

        gate.send(()).unwrap();
        let reply = first.join().unwrap().unwrap();
        assert_eq!(reply.header.as_ref(), b"park", "{family:?}");
        assert_eq!(fabric.stats().snapshot().4, 0, "{family:?}");
    }
}

#[test]
fn cross_fabric_client_resolves_a_registered_endpoint() {
    // Server side: its own fabric, auto-bound ephemeral TCP address.
    let server_fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = server_fabric.serve("node0/srv0", echo_handler()).unwrap();
    let uri = server_fabric.endpoint_uri("node0/srv0").unwrap();
    assert!(uri.starts_with("tcp:"), "{uri}");

    // Client side: a separate fabric (as a separate process would build)
    // that only knows the advertised URI.
    let client = Arc::new(Fabric::socket(SocketFamily::Tcp));
    client.register_endpoint("node0/srv0", &uri).unwrap();
    let reply = client
        .call("node0/srv0", Bytes::from_static(b"hello"))
        .unwrap();
    assert_eq!(reply.header.as_ref(), b"olleh");

    // Loopback fabrics have no addresses to register.
    let loopback = Arc::new(Fabric::new());
    assert!(matches!(
        loopback.register_endpoint("x", "tcp:127.0.0.1:1"),
        Err(HvacError::InvalidConfig(_))
    ));
}

#[test]
fn endpoint_list_env_round_trip() {
    // `socket_from_env` is what a standalone client process runs at
    // startup; exercise the whole env → registry → RPC path.
    let server_fabric = Arc::new(Fabric::socket(SocketFamily::Unix));
    let _ep = server_fabric.serve("node0/srv0", echo_handler()).unwrap();
    let uri = server_fabric.endpoint_uri("node0/srv0").unwrap();

    std::env::set_var("HVAC_ENDPOINTS", format!("node0/srv0={uri}"));
    let client = Arc::new(Fabric::socket_from_env().unwrap());
    std::env::remove_var("HVAC_ENDPOINTS");

    let reply = client
        .call("node0/srv0", Bytes::from_static(b"abc"))
        .unwrap();
    assert_eq!(reply.header.as_ref(), b"cba");
}

#[test]
fn duplicate_serve_is_rejected() {
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("dup", echo_handler()).unwrap();
    let err = fabric.serve("dup", echo_handler()).unwrap_err();
    assert!(matches!(err, HvacError::InvalidConfig(_)), "{err}");
}

#[test]
fn unreachable_endpoint_is_server_down_and_moves_no_bytes() {
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    // Registered but nobody listening: the dial fails.
    fabric
        .register_endpoint("ghost", "tcp:127.0.0.1:1")
        .unwrap();
    let err = fabric
        .call_with_deadline(
            "ghost",
            Bytes::from_static(b"xxxx"),
            Duration::from_millis(500),
        )
        .unwrap_err();
    assert!(matches!(err, HvacError::ServerDown(_)), "{err}");
    let (rpcs, req_b, _, _, failed) = fabric.stats().snapshot();
    assert_eq!((rpcs, req_b, failed), (0, 0, 1));
}

#[test]
fn client_reconnects_after_server_restart() {
    // Unix sockets give us a stable address across restarts.
    let path = std::env::temp_dir().join(format!("hvac-restart-{}.sock", std::process::id()));
    let uri = format!("unix:{}", path.display());

    let server_fabric = Arc::new(Fabric::socket(SocketFamily::Unix));
    server_fabric.register_endpoint("s", &uri).unwrap();
    let ep = server_fabric.serve("s", echo_handler()).unwrap();

    let client = Arc::new(Fabric::socket(SocketFamily::Unix));
    client.register_endpoint("s", &uri).unwrap();
    assert_eq!(
        client
            .call("s", Bytes::from_static(b"one"))
            .unwrap()
            .header
            .as_ref(),
        b"eno"
    );

    // Server goes away: the pooled connection dies and calls fail.
    drop(ep);
    assert!(client
        .call_with_deadline("s", Bytes::from_static(b"two"), Duration::from_millis(500))
        .is_err());

    // Server comes back on the same address: the pool dials afresh.
    let server_fabric2 = Arc::new(Fabric::socket(SocketFamily::Unix));
    server_fabric2.register_endpoint("s", &uri).unwrap();
    let _ep2 = server_fabric2.serve("s", echo_handler()).unwrap();
    let mut revived = None;
    for _ in 0..20 {
        match client.call_with_deadline("s", Bytes::from_static(b"three"), Duration::from_secs(2)) {
            Ok(r) => {
                revived = Some(r);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let reply = revived.expect("client never reconnected");
    assert_eq!(reply.header.as_ref(), b"eerht");
}

#[test]
fn a_server_served_again_at_its_address_is_reached_by_the_first_call() {
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let first = Arc::new(Fabric::socket(family));
        if family == SocketFamily::Unix {
            let path =
                std::env::temp_dir().join(format!("hvac-reserve-{}.sock", std::process::id()));
            first
                .register_endpoint("s", &format!("unix:{}", path.display()))
                .unwrap();
        }
        let ep = first.serve("s", echo_handler()).unwrap();
        let uri = first.endpoint_uri("s").unwrap();

        let client = Arc::new(Fabric::socket(family));
        client.register_endpoint("s", &uri).unwrap();
        let reply = client.call("s", Bytes::from_static(b"one")).unwrap();
        assert_eq!(reply.header.as_ref(), b"eno", "{family:?}");

        // The server goes away and comes back at the same address while
        // the client's connection to the old one sits in its pool.
        drop(ep);
        drop(first);
        let second = Arc::new(Fabric::socket(family));
        second.register_endpoint("s", &uri).unwrap();
        let _ep = second.serve("s", echo_handler()).unwrap();
        assert_eq!(second.endpoint_uri("s").unwrap(), uri);

        let reply = client.call("s", Bytes::from_static(b"two")).unwrap();
        assert_eq!(reply.header.as_ref(), b"owt", "{family:?}");
        let (rpcs, req_b, _, _, failed) = client.stats().snapshot();
        assert_eq!((rpcs, req_b, failed), (2, 6, 0), "{family:?}");
        assert_eq!(
            client.stats().connects.load(Ordering::Relaxed),
            2,
            "{family:?}"
        );
    }
}

#[test]
fn set_down_latches_the_socket_endpoint() {
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("d", echo_handler()).unwrap();
    assert!(fabric.is_up("d"));
    assert!(fabric.set_down("d", true));
    assert!(!fabric.is_up("d"));
    let err = fabric.call("d", Bytes::new()).unwrap_err();
    assert!(matches!(err, HvacError::ServerDown(_)), "{err}");
    assert!(fabric.set_down("d", false));
    assert!(fabric.call("d", Bytes::new()).is_ok());
}

// ---- fault-injector parity: all five actions over real sockets ----------

#[test]
fn injected_error_and_delay_work_over_sockets() {
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("f", echo_handler()).unwrap();

    fabric.fault_injector().set(
        "f",
        FaultSpec {
            error_prob: 1.0,
            ..FaultSpec::default()
        },
    );
    let err = fabric.call("f", Bytes::new()).unwrap_err();
    assert!(matches!(err, HvacError::Rpc(_)), "{err}");

    fabric.fault_injector().set(
        "f",
        FaultSpec {
            delay_prob: 1.0,
            delay: Duration::from_millis(60),
            ..FaultSpec::default()
        },
    );
    let start = Instant::now();
    fabric.call("f", Bytes::from_static(b"x")).unwrap();
    assert!(start.elapsed() >= Duration::from_millis(60));
    fabric.fault_injector().clear_all();
}

#[test]
fn dropped_requests_time_out_and_never_reach_the_server() {
    let served = Arc::new(AtomicU64::new(0));
    let counter = served.clone();
    let handler: Arc<dyn RpcHandler> = Arc::new(move |req: Bytes| -> Reply {
        counter.fetch_add(1, Ordering::Relaxed);
        Reply {
            header: req,
            bulk: None,
        }
    });
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("drp", handler).unwrap();
    fabric
        .fault_injector()
        .set("drp", FaultSpec::always_drop(7));

    let err = fabric
        .call_with_deadline("drp", Bytes::from_static(b"x"), Duration::from_millis(40))
        .unwrap_err();
    assert!(matches!(err, HvacError::RpcTimeout { .. }), "{err}");
    // The request was dropped client-side: no bytes moved, nothing served.
    let (_, req_b, _, _, failed) = fabric.stats().snapshot();
    assert_eq!((req_b, failed), (0, 1));
    assert_eq!(served.load(Ordering::Relaxed), 0);
}

#[test]
fn hung_server_serves_the_request_but_the_caller_times_out() {
    let served = Arc::new(AtomicU64::new(0));
    let counter = served.clone();
    let handler: Arc<dyn RpcHandler> = Arc::new(move |req: Bytes| -> Reply {
        counter.fetch_add(1, Ordering::Relaxed);
        Reply {
            header: req,
            bulk: None,
        }
    });
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("hng", handler).unwrap();
    fabric
        .fault_injector()
        .set("hng", FaultSpec::always_hang(7));

    let err = fabric
        .call_with_deadline("hng", Bytes::from_static(b"abc"), Duration::from_millis(80))
        .unwrap_err();
    assert!(matches!(err, HvacError::RpcTimeout { .. }), "{err}");
    // Hang ≠ drop: the request *was* delivered (bytes counted, handler ran)
    // but the reply was abandoned.
    let (rpcs, req_b, _, _, failed) = fabric.stats().snapshot();
    assert_eq!((rpcs, req_b, failed), (0, 3, 1));
    for _ in 0..40 {
        if served.load(Ordering::Relaxed) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(served.load(Ordering::Relaxed), 1);
}

/// A raw peer that answers its one request with the first half of a reply
/// frame, one more byte half a deadline later, and then nothing until
/// `done` fires. Returns the URI it listens on and its thread.
fn stalling_peer(
    family: SocketFamily,
    deadline: Duration,
    done: Receiver<()>,
) -> (String, std::thread::JoinHandle<()>) {
    fn serve<S: Read + Write>(mut conn: S, deadline: Duration, done: Receiver<()>) {
        let body = framing::read_frame(&mut conn, framing::DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        let req = framing::decode_request(body).unwrap();
        let reply = Reply {
            header: Bytes::from(vec![9u8; 64]),
            bulk: None,
        };
        let frame = framing::encode_reply(req.req_id, &reply, framing::DEFAULT_MAX_FRAME).unwrap();
        let half = frame.len() / 2;
        conn.write_all(&frame[..half]).unwrap();
        std::thread::sleep(deadline / 2);
        conn.write_all(&frame[half..=half]).unwrap();
        let _ = done.recv_timeout(Duration::from_secs(30));
    }
    match family {
        SocketFamily::Tcp => {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let uri = format!("tcp:{}", l.local_addr().unwrap());
            let peer = std::thread::spawn(move || serve(l.accept().unwrap().0, deadline, done));
            (uri, peer)
        }
        SocketFamily::Unix => {
            let path = std::env::temp_dir().join(format!("hvac-stall-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let l = std::os::unix::net::UnixListener::bind(&path).unwrap();
            let uri = format!("unix:{}", path.display());
            let peer = std::thread::spawn(move || {
                serve(l.accept().unwrap().0, deadline, done);
                let _ = std::fs::remove_file(&path);
            });
            (uri, peer)
        }
    }
}

#[test]
fn a_reply_that_stalls_mid_frame_times_out_at_the_deadline() {
    let deadline = Duration::from_millis(600);
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let (done_tx, done_rx) = unbounded::<()>();
        let (uri, peer) = stalling_peer(family, deadline, done_rx);
        let fabric = Arc::new(Fabric::socket(family));
        fabric.register_endpoint("stall", &uri).unwrap();

        let start = Instant::now();
        let err = fabric
            .call_with_deadline("stall", Bytes::from_static(b"x"), deadline)
            .unwrap_err();
        let waited = start.elapsed();
        assert!(
            matches!(err, HvacError::RpcTimeout { .. }),
            "{family:?}: {err}"
        );
        // The byte that trickles in halfway must not restart the clock: a
        // read that waited a whole deadline after it would end near 900 ms.
        assert!(
            waited >= deadline && waited < deadline + Duration::from_millis(200),
            "{family:?}: timed out after {waited:?}, deadline {deadline:?}"
        );
        done_tx.send(()).unwrap();
        peer.join().unwrap();
    }
}

#[test]
fn crash_latches_the_endpoint_down_until_revived() {
    let fabric = Arc::new(Fabric::socket(SocketFamily::Tcp));
    let _ep = fabric.serve("c", echo_handler()).unwrap();
    fabric.fault_injector().set("c", FaultSpec::always_crash(3));

    let err = fabric.call("c", Bytes::new()).unwrap_err();
    assert!(matches!(err, HvacError::ServerDown(_)), "{err}");
    assert!(!fabric.is_up("c"));

    // The latch persists even after the fault is disarmed.
    fabric.fault_injector().clear_all();
    let err = fabric.call("c", Bytes::new()).unwrap_err();
    assert!(matches!(err, HvacError::ServerDown(_)), "{err}");

    // Explicit revival restores service.
    assert!(fabric.set_down("c", false));
    assert!(fabric.call("c", Bytes::new()).is_ok());
}

#[test]
fn frame_cap_is_enforced_on_the_client_side() {
    let fabric = Arc::new(Fabric::socket_with(SocketConfig {
        family: SocketFamily::Tcp,
        max_frame: 1024,
        ..SocketConfig::default()
    }));
    let _ep = fabric.serve("cap", echo_handler()).unwrap();
    let err = fabric
        .call("cap", Bytes::from(vec![0u8; 4096]))
        .unwrap_err();
    assert!(matches!(err, HvacError::Protocol(_)), "{err}");
    let (rpcs, req_b, _, _, failed) = fabric.stats().snapshot();
    assert_eq!((rpcs, req_b, failed), (0, 0, 1));
}

#[test]
fn uri_parse_accepts_what_serve_advertises() {
    for family in [SocketFamily::Tcp, SocketFamily::Unix] {
        let fabric = Arc::new(Fabric::socket(family));
        let _ep = fabric.serve("adv", echo_handler()).unwrap();
        let uri = fabric.endpoint_uri("adv").unwrap();
        EndpointUri::parse(&uri).unwrap();
    }
}
