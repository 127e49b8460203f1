//! Property-based tests: the exposition output round-trips through the
//! minimal text-format parser with every value intact.

use proptest::prelude::*;

use crate::{encode, parse, Registry};

/// Deterministic label values exercising the escaper: index selects from a
/// palette that includes every escaped character.
fn label_value(index: u32) -> String {
    const PALETTE: &[&str] = &[
        "plain",
        "with space",
        "back\\slash",
        "quo\"te",
        "new\nline",
        "mixed \\ \" \n end",
        "",
        "unicode µs → ns",
    ];
    PALETTE[index as usize % PALETTE.len()].to_string()
}

proptest! {
    /// Counters and gauges survive encode → parse with exact values and
    /// labels.
    #[test]
    fn scalar_series_round_trip(
        entries in proptest::collection::vec((0u32..1000, 0u32..64, any::<u32>()), 1..8),
        gauge_value in any::<i32>(),
    ) {
        let registry = Registry::new();
        let mut expected: Vec<(String, String, u64)> = Vec::new();
        for (name_tag, value_tag, amount) in &entries {
            let name = format!("ctr_{name_tag}_total");
            let value = label_value(*value_tag);
            let counter = registry.counter(&name, "help text", &[("label", &value)]);
            counter.add(u64::from(*amount));
            expected.push((name, value, counter.get()));
        }
        registry.gauge("depth", "", &[]).set(i64::from(gauge_value));

        let text = encode(&registry);
        let parsed = parse::parse(&text).expect("encoded exposition must parse");

        for (name, label, total) in expected {
            let got = parsed.value(&name, &[("label", &label)]);
            prop_assert!(
                got == Some(total as f64),
                "series {} label {:?}: got {:?}, want {}",
                name,
                label,
                got,
                total
            );
        }
        prop_assert_eq!(parsed.value("depth", &[]), Some(f64::from(gauge_value)));
    }

    /// Histograms round-trip: every bucket is cumulative, `_count` equals the
    /// `+Inf` bucket and the number of observations, `_sum` matches.
    #[test]
    fn histogram_round_trip(
        raw_boundaries in proptest::collection::vec(1u64..10_000, 1..6),
        observations in proptest::collection::vec(0u64..20_000, 0..40),
    ) {
        let mut boundaries = raw_boundaries;
        boundaries.sort_unstable();
        boundaries.dedup();
        let registry = Registry::new();
        let histogram = registry.histogram_with_buckets(
            "lat_ns", "latency", &[("peer", "0")], boundaries.clone());
        let mut sum = 0u64;
        for &value in &observations {
            histogram.observe(value);
            sum += value;
        }

        let parsed = parse::parse(&encode(&registry)).expect("exposition must parse");
        let labels = [("peer", "0")];
        prop_assert_eq!(
            parsed.value("lat_ns_count", &labels),
            Some(observations.len() as f64)
        );
        prop_assert_eq!(parsed.value("lat_ns_sum", &labels), Some(sum as f64));
        let mut previous = 0.0;
        for boundary in &boundaries {
            let le = boundary.to_string();
            let expected = observations.iter().filter(|&&v| v <= *boundary).count() as f64;
            let got = parsed
                .value("lat_ns_bucket", &[("peer", "0"), ("le", &le)])
                .expect("bucket sample present");
            prop_assert!(got == expected, "bucket le={le}: got {got}, want {expected}");
            prop_assert!(got >= previous, "buckets are cumulative");
            previous = got;
        }
        prop_assert_eq!(
            parsed.value("lat_ns_bucket", &[("peer", "0"), ("le", "+Inf")]),
            Some(observations.len() as f64)
        );
    }
}
