//! Integration: a captured window survives a full archive round trip —
//! telescope → libpcap bytes → parse (checksums verified) → rebuilt
//! traffic matrix — with every analysis quantity intact.

use obscor::hypersparse::reduce::NetworkQuantities;
use obscor::hypersparse::{HierarchicalAccumulator, MemMedium};
use obscor::netmodel::Scenario;
use obscor::pcap::{PcapReader, PcapWriter};
use obscor::telescope::{capture_window, matrix};
use std::sync::Arc;

#[test]
fn window_to_pcap_and_back_preserves_the_matrix() {
    let s = Scenario::paper_scaled(1 << 14, 55);
    let w = capture_window(&s, &s.caida_windows[0]);
    let original = matrix::build_matrix(&w);

    // Archive as real libpcap.
    let mut writer = PcapWriter::new();
    for p in &w.window.packets {
        writer.write_packet(p);
    }
    let bytes = writer.into_bytes();

    // Restore: parse (verifying IPv4 + transport checksums) and rebuild.
    let packets = PcapReader::new(&bytes).unwrap().read_all().unwrap();
    assert_eq!(packets.len(), s.n_v);
    let mut acc = HierarchicalAccumulator::with_leaf_capacity(2048);
    let mut spilled =
        HierarchicalAccumulator::spilling(2048, Some(0), Arc::new(MemMedium::new()));
    for p in &packets {
        acc.push_edge(p.src.0, p.dst.0);
        spilled.push_edge(p.src.0, p.dst.0);
    }
    let restored = acc.finalize();

    assert_eq!(original, restored, "matrices must be bit-identical");
    assert_eq!(spilled.finalize(), restored, "a spilling rebuild must be bit-identical");
    assert_eq!(
        NetworkQuantities::compute(&original),
        NetworkQuantities::compute(&restored)
    );
}

#[test]
fn pcap_timestamps_preserve_window_duration() {
    let s = Scenario::paper_scaled(1 << 14, 56);
    let w = capture_window(&s, &s.caida_windows[2]);
    let mut writer = PcapWriter::new();
    for p in &w.window.packets {
        writer.write_packet(p);
    }
    let packets = PcapReader::new(&writer.into_bytes()).unwrap().read_all().unwrap();
    let duration = (packets.last().unwrap().ts_micros - packets[0].ts_micros) as f64 / 1e6;
    assert!(
        (duration - w.duration_secs()).abs() < 1e-3,
        "duration drifted: {duration} vs {}",
        w.duration_secs()
    );
}

#[test]
fn class_behaviour_is_visible_in_the_archive() {
    // The synthetic world's class structure must survive into the pcap:
    // scanners hit the scan-port list, botnet nodes the C2 port.
    let s = Scenario::paper_scaled(1 << 14, 57);
    let w = capture_window(&s, &s.caida_windows[0]);
    let mut writer = PcapWriter::new();
    for p in &w.window.packets {
        writer.write_packet(p);
    }
    let packets = PcapReader::new(&writer.into_bytes()).unwrap().read_all().unwrap();
    let c2 = packets.iter().filter(|p| p.dst_port == 6667).count();
    let scanned = packets
        .iter()
        .filter(|p| [22, 23, 80, 443, 445, 3389].contains(&p.dst_port))
        .count();
    assert!(c2 > 0, "no botnet C2 traffic in archive");
    assert!(scanned > 0, "no scan traffic in archive");
}
