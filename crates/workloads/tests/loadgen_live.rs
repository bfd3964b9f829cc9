//! The load generator against a live loopback server: multi-tenant
//! traffic completes, per-volume stats make sense, and faults of both
//! effects injected mid-run on two volumes are masked, each with a
//! measurable client-observed unavailability window, while every
//! volume stays serviceable and the scrape exports per-layer
//! attribution.

use std::sync::Arc;
use std::time::Instant;

use rae_server::{quiet_injected_panics, Client, Server, ServerConfig, VolumeManager};
use rae_workloads::{populate_volumes, start_load, unavailability_window, LoadGenConfig};

#[test]
fn loadgen_drives_multi_tenant_traffic_through_a_fault() {
    quiet_injected_panics();
    let manager = Arc::new(VolumeManager::new());
    let config = ServerConfig {
        workers: 6,
        queue: 8,
    };
    let server = Server::bind("127.0.0.1:0", manager, &config).expect("bind");
    let addr = server.local_addr().to_string();

    let mut admin = Client::connect(addr.as_str()).expect("admin connect");
    let mut volumes = Vec::new();
    for name in ["t0", "t1", "t2"] {
        volumes.push(admin.create_volume(name, 2048, 512, 128, 0, 0).unwrap());
    }

    let cfg = LoadGenConfig {
        addr,
        volumes: volumes.clone(),
        connections: 4,
        clients_per_connection: 4,
        ops_per_client: 60,
        write_pct: 30,
        files_per_volume: 8,
        file_size: 8 * 1024,
        read_size: 512,
        ..LoadGenConfig::default()
    };
    let fds = populate_volumes(&cfg).expect("populate");
    assert_eq!(fds.len(), 3);

    let epoch = Instant::now();
    let run = start_load(&cfg, &fds, epoch).expect("start load");

    // Wait for the run to be genuinely mid-flight, then fault the
    // write path (wire site code 4) of two volumes: a panic (effect 1)
    // on the first, a detected error (effect 0) on the second.
    while run.progress() < 0.3 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut fault_ns = Vec::new();
    for (volume, effect) in [(volumes[0], 1), (volumes[1], 0)] {
        fault_ns.push(run.now_ns());
        admin.inject_fault(volume, 4, effect, 1).expect("inject");
    }

    let report = run.join();
    assert_eq!(report.total_ops, 4 * 4 * 60);
    assert_eq!(report.total_io_errors, 0, "no connections may drop");
    assert_eq!(report.total_errors, 0, "both faults must be masked");
    assert!(report.ops_per_sec() > 0.0);

    for v in &report.per_volume {
        assert!(v.ops > 0, "volume {} starved", v.volume);
        assert!(v.p50_ns > 0 && v.p50_ns <= v.p99_ns && v.p99_ns <= v.max_ns);
    }

    // Each faulted volume recovered under live traffic: some success
    // exists on both sides of its injection point, and it recovered
    // exactly once. The untouched volume never recovered.
    for (i, &at_ns) in fault_ns.iter().enumerate() {
        let window = unavailability_window(&report.per_volume[i].timeline, at_ns)
            .expect("volume must serve successes after the fault");
        assert!(window > 0);
        let stats = admin.volume_stats(volumes[i]).unwrap();
        assert!(stats.contains("\"recoveries\": 1"), "stats: {stats}");
    }
    let stats = admin.volume_stats(volumes[2]).unwrap();
    assert!(stats.contains("\"recoveries\": 0"), "stats: {stats}");
    let listed = admin.list_volumes().unwrap();
    assert!(listed.iter().all(|v| v.status == 0));

    // The metrics plane exports the per-layer attribution of the ops
    // each volume served, the faulted ones included.
    let scrape = admin.scrape(false).unwrap();
    for name in ["t0", "t1", "t2"] {
        let row = format!("rae_attr_ns_count{{volume=\"{name}\",layer=");
        assert!(scrape.contains(&row), "missing {row} in:\n{scrape}");
    }

    drop(admin);
    let report = server.shutdown().unwrap();
    assert_eq!(report.volumes_unmounted, 3);
    assert!(report.all_clean);
}
