//! A socket server must give back every descriptor a departed client held
//! open. This is a test binary of its own because it counts the process's
//! open descriptors, which tests running on other threads would move.

use bytes::Bytes;
use hvac_net::socket::SocketFamily;
use hvac_net::{Fabric, Reply, RpcHandler};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn connect_call_drop_cycles_leave_no_fds_behind_on(family: SocketFamily) {
    let handler: Arc<dyn RpcHandler> = Arc::new(|req: Bytes| Reply {
        header: req,
        bulk: None,
    });
    let server = Arc::new(Fabric::socket(family));
    let _ep = server.serve("s", handler).unwrap();
    let uri = server.endpoint_uri("s").unwrap();
    let baseline = open_fds();

    // Each client connects, calls once and drops its fabric, closing the
    // connection, as a short-lived client process would on exit.
    for i in 0..100u32 {
        let client = Arc::new(Fabric::socket(family));
        client.register_endpoint("s", &uri).unwrap();
        let msg = Bytes::from(i.to_le_bytes().to_vec());
        assert_eq!(client.call("s", msg.clone()).unwrap().header, msg);
    }

    // The server sees each departure on the connection's own thread, a
    // moment after the client closes: wait for the count to settle.
    let give_up = Instant::now() + Duration::from_secs(10);
    while open_fds() > baseline && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        open_fds(),
        baseline,
        "{family:?}: 100 departed connections left descriptors behind"
    );
}

#[test]
fn departed_connections_give_back_their_fds_on_tcp_and_uds() {
    connect_call_drop_cycles_leave_no_fds_behind_on(SocketFamily::Tcp);
    connect_call_drop_cycles_leave_no_fds_behind_on(SocketFamily::Unix);
}
