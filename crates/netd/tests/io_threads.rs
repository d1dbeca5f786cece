//! A mesh runs on one I/O thread, and a dropped mesh leaves none behind.
//!
//! Its own test binary with a single test, so no sibling test's threads
//! are counted. Threads are counted in `/proc/self/task`, so the test
//! runs on Linux only.

use dex_netd::frame::encode_frame;
use dex_netd::listener::free_loopback_addrs;
use dex_netd::Mesh;
use dex_types::ProcessId;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn seven_meshes_run_seven_threads_and_none_once_dropped() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let n = 7;
    let baseline = threads();
    let addrs = free_loopback_addrs(n).expect("free ports");
    let meshes: Vec<Mesh> = (0..n)
        .map(|i| Mesh::with_net(ProcessId::new(i), addrs.clone(), None).expect("bind"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while meshes.iter().any(|m| m.connected() < n - 1) {
        assert!(Instant::now() < deadline, "the meshes never connected");
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), baseline + n, "one thread per mesh");
    // Every mesh sends every other one frame, and keeps one more queued
    // when it is dropped: the drain runs on the way out.
    for round in 0..2 {
        for (i, mesh) in meshes.iter().enumerate() {
            let frame: Arc<[u8]> = encode_frame(1, round, &[i as u8]).into();
            let to = (0..n).filter(|&j| j != i).map(ProcessId::new);
            mesh.send_all(to.map(|to| (to, Arc::clone(&frame))));
        }
        if round == 0 {
            for mesh in &meshes {
                for _ in 1..n {
                    let d = mesh.recv_timeout(Duration::from_secs(10));
                    assert!(d.is_some(), "a frame of the first round went missing");
                }
            }
        }
    }
    drop(meshes);
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() > baseline {
        assert!(
            Instant::now() < deadline,
            "{} threads 2 s after the drop, {baseline} before the meshes",
            threads()
        );
        thread::sleep(Duration::from_millis(5));
    }
}
