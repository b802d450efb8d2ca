//! Conversions between GraphBLAS hypersparse matrices and associative
//! arrays.
//!
//! The paper's workflow: "After the unique sources and packet counts are
//! computed from the CAIDA Telescope GraphBLAS matrices, the reduced results
//! are converted to D4M associative arrays to facilitate correlation with
//! the GreyNoise D4M associative arrays." These functions are that bridge.

use crate::{Assoc, KeySet, NumAssoc};
use obscor_hypersparse::{reduce, Csr, Index, Value};

/// Render an IPv4 index in dotted-quad form (the D4M string key format).
pub fn ip_key(ip: Index) -> String {
    format!(
        "{:03}.{:03}.{:03}.{:03}",
        (ip >> 24) & 0xFF,
        (ip >> 16) & 0xFF,
        (ip >> 8) & 0xFF,
        ip & 0xFF
    )
}

/// Parse a key in exactly the spelling [`ip_key`] renders: 15 bytes, four
/// zero-padded three-digit octets (each at most 255) joined by dots.
///
/// Any other spelling (`"1.2.3.4"`, `"+1.2.3.4"`, `"001.002.003.04"`)
/// is `None`. Such a key can never equal a window's source key under
/// [`KeySet`] string semantics, so every numeric path that parses with
/// this function agrees with the string set algebra. Does not allocate.
pub fn parse_ip_key(key: &str) -> Option<Index> {
    let bytes = key.as_bytes();
    if bytes.len() != 15 {
        return None;
    }
    let mut ip: u32 = 0;
    for (i, octet) in bytes.chunks(4).enumerate() {
        if i < 3 && octet[3] != b'.' {
            return None;
        }
        let mut value: u32 = 0;
        for &b in &octet[..3] {
            if !b.is_ascii_digit() {
                return None;
            }
            value = value * 10 + u32::from(b - b'0');
        }
        if value > 255 {
            return None;
        }
        ip = (ip << 8) | value;
    }
    Some(ip)
}

/// Convert a full traffic matrix into a numeric associative array with
/// dotted-quad row/column keys.
pub fn traffic_matrix_to_assoc<V: Value>(a: &Csr<V>) -> NumAssoc {
    let triples: Vec<(String, String, f64)> =
        a.iter().map(|(r, c, v)| (ip_key(r), ip_key(c), v.to_f64())).collect();
    Assoc::from_triples_sum(triples)
}

/// Reduce a traffic matrix to the paper's correlation input: a one-column
/// associative array mapping each source key to its packet count `d`.
pub fn source_packets_to_assoc<V: Value>(a: &Csr<V>) -> NumAssoc {
    let triples: Vec<(String, String, f64)> = reduce::source_packets(a)
        .into_iter()
        .map(|(src, d)| (ip_key(src), "packets".to_string(), d as f64))
        .collect();
    Assoc::from_triples_sum(triples)
}

/// The source key set of a traffic matrix (rows with at least one packet).
pub fn source_key_set<V: Value>(a: &Csr<V>) -> KeySet {
    a.row_keys().iter().map(|&r| ip_key(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_hypersparse::Coo;

    #[test]
    fn ip_key_is_sortable_dotted_quad() {
        assert_eq!(ip_key(0x01010101), "001.001.001.001");
        assert_eq!(ip_key(0xC0A80001), "192.168.000.001");
        // Zero padding makes lexicographic order equal numeric order.
        assert!(ip_key(0x0A000001) < ip_key(0x0B000001));
        assert!(ip_key(2) < ip_key(10));
    }

    #[test]
    fn parse_round_trips() {
        for ip in [0u32, 1, 0xFFFFFFFF, 0xC0A80001, 16843009] {
            assert_eq!(parse_ip_key(&ip_key(ip)), Some(ip));
        }
        // Only the canonical zero-padded spelling parses: a non-padded key
        // never equals an `ip_key` string, so it must not alias one.
        assert_eq!(parse_ip_key("1.2.3.4"), None);
        assert_eq!(parse_ip_key("+1.2.3.4"), None);
        assert_eq!(parse_ip_key("001.002.003.04"), None);
        assert_eq!(parse_ip_key("001.002.003.0004"), None);
        assert_eq!(parse_ip_key("001.002.003.+04"), None);
        assert_eq!(parse_ip_key("001-002-003-004"), None);
        assert_eq!(parse_ip_key("256.000.000.001"), None);
        assert_eq!(parse_ip_key("001.002.003.256"), None);
        assert_eq!(parse_ip_key("256.0.0.1"), None);
        assert_eq!(parse_ip_key("1.2.3"), None);
        assert_eq!(parse_ip_key("1.2.3.4.5"), None);
        assert_eq!(parse_ip_key("a.b.c.d"), None);
        assert_eq!(parse_ip_key("aaa.bbb.ccc.ddd"), None);
        assert_eq!(parse_ip_key(""), None);
        // Multi-byte UTF-8 of the right byte length is rejected, not split.
        assert_eq!(parse_ip_key("001.002.003.0é"), None);
    }

    #[test]
    fn traffic_matrix_conversion_keeps_counts() {
        let mut coo = Coo::new();
        coo.push(16843009, 33686018, 3u64); // the paper's worked example
        let a = coo.into_csr();
        let assoc = traffic_matrix_to_assoc(&a);
        assert_eq!(assoc.get("001.001.001.001", "002.002.002.002"), Some(&3.0));
    }

    #[test]
    fn source_packets_reduction() {
        let a = Coo::from_triples(vec![(1u32, 10u32, 2u64), (1, 11, 3), (2, 10, 1)]).into_csr();
        let s = source_packets_to_assoc(&a);
        assert_eq!(s.get(&ip_key(1), "packets"), Some(&5.0));
        assert_eq!(s.get(&ip_key(2), "packets"), Some(&1.0));
        assert_eq!(s.n_rows(), 2);
    }

    #[test]
    fn source_key_set_matches_rows() {
        let a = Coo::from_triples(vec![(9u32, 1u32, 1u64), (7, 1, 1)]).into_csr();
        let ks = source_key_set(&a);
        assert_eq!(ks.len(), 2);
        assert!(ks.contains(&ip_key(7)));
        assert!(ks.contains(&ip_key(9)));
    }
}
