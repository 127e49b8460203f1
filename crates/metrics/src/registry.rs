//! The registry: a named, labeled catalog of instruments.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::instruments::{Counter, Gauge, Histogram};

/// Label pairs attached to one series. Stored sorted by label name so the
/// same set spelled in a different order names the same series.
pub type Labels = Vec<(String, String)>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> Kind {
        match self {
            Instrument::Counter(_) => Kind::Counter,
            Instrument::Gauge(_) => Kind::Gauge,
            Instrument::Histogram(_) => Kind::Histogram,
        }
    }
}

pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: Kind,
    pub(crate) series: BTreeMap<Labels, Instrument>,
}

/// A catalog of named instruments, rendered by [`crate::encode`].
///
/// Registration takes a short mutex; the instrument handles it returns are
/// lock-free, so hot paths register once up front and only touch atomics
/// afterwards. Cloning a `Registry` shares the catalog — one clone can live
/// in a peer thread while another answers scrapes.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Family>>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    debug_assert!(
        out.iter().all(|(k, _)| valid_name(k)),
        "label names must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(
            valid_name(name),
            "metric name {name:?} must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let fresh = fresh();
        let kind = fresh.kind();
        let mut catalog = self.inner.lock().expect("registry mutex poisoned");
        let family = catalog.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} already registered as a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(canonical(labels))
            .or_insert(fresh)
            .clone()
    }

    /// Get-or-create a [`Counter`] series. Registering the same name and
    /// labels again returns a handle to the existing series. Panics if the
    /// name is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get-or-create a [`Gauge`] series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, labels, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get-or-create a [`Histogram`] series with the default latency
    /// buckets.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_insert(name, help, labels, || {
            Instrument::Histogram(Histogram::new())
        })
        .into_histogram()
    }

    /// Get-or-create a [`Histogram`] series with custom boundaries. The
    /// boundaries only apply if the series is created by this call; an
    /// existing series keeps its own.
    pub fn histogram_with_buckets(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        boundaries: Vec<u64>,
    ) -> Histogram {
        self.get_or_insert(name, help, labels, || {
            Instrument::Histogram(Histogram::with_buckets(boundaries))
        })
        .into_histogram()
    }

    /// Registers an *existing* counter handle — the `prometheus_client`
    /// `registry.register(name, help, counter.clone())` idiom. The handle
    /// keeps being the single storage location; a series already registered
    /// under the same name and labels is replaced.
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: Counter,
    ) {
        self.register(name, help, labels, Instrument::Counter(counter));
    }

    /// Registers an existing histogram handle (see
    /// [`Registry::register_counter`]).
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: Histogram,
    ) {
        self.register(name, help, labels, Instrument::Histogram(histogram));
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], instrument: Instrument) {
        assert!(
            valid_name(name),
            "metric name {name:?} must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let kind = instrument.kind();
        let mut catalog = self.inner.lock().expect("registry mutex poisoned");
        let family = catalog.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} already registered as a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family.series.insert(canonical(labels), instrument);
    }

    /// The registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Runs `f` over the catalog under the registration lock.
    pub(crate) fn with_families<R>(&self, f: impl FnOnce(&BTreeMap<String, Family>) -> R) -> R {
        f(&self.inner.lock().expect("registry mutex poisoned"))
    }
}

impl Instrument {
    fn into_histogram(self) -> Histogram {
        match self {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_series() {
        let registry = Registry::new();
        let a = registry.counter("ops_total", "ops", &[("peer", "1")]);
        let b = registry.counter("ops_total", "ops", &[("peer", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Different labels are a different series.
        let c = registry.counter("ops_total", "ops", &[("peer", "2")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "", &[("a", "1"), ("b", "2")]);
        let b = registry.counter("x_total", "", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn register_existing_handle_shares_storage() {
        let registry = Registry::new();
        let counter = Counter::new();
        counter.add(3);
        registry.register_counter(
            "events_dispatched",
            "dispatched events",
            &[],
            counter.clone(),
        );
        let via_registry = registry.counter("events_dispatched", "", &[]);
        counter.inc();
        assert_eq!(via_registry.get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        registry.counter("x_total", "", &[]);
        registry.gauge("x_total", "", &[]);
    }

    #[test]
    #[should_panic(expected = "metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("1bad name", "", &[]);
    }

    #[test]
    fn concurrent_registration_and_increment() {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = registry.clone();
                scope.spawn(move || {
                    let c = registry.counter("shared_total", "", &[]);
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(registry.counter("shared_total", "", &[]).get(), 8000);
    }
}
