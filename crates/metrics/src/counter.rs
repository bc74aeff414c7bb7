//! Counter families declared once.
//!
//! Every layer keeps its observability counters as relaxed atomics: they
//! publish no other data, so the cheapest ordering is enough, and a monitor
//! thread may read a live family without a lock.  A family is declared with
//! [`counters!`](crate::counters): each field is written once, with its doc
//! comment and its rule, and the macro generates the atomic struct, one getter
//! per field and — when the family names one — the plain snapshot struct with
//! its `snapshot`, `merge` and `delta_since`.
//!
//! The rule says what a field is:
//!
//! * `sum` — a count that only grows: `merge` adds, `delta_since` subtracts,
//! * `max` — a level or high-water mark: `merge` keeps the larger value,
//!   `delta_since` keeps the later snapshot's value verbatim.

use std::sync::atomic::{AtomicU64, Ordering};

/// One relaxed atomic counter cell.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (a high-water mark).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declare a counter family: the atomic struct, a getter per field and,
/// optionally, a plain snapshot struct with `snapshot`, `merge` and
/// `delta_since`.
///
/// ```
/// sherman_metrics::counters! {
///     /// Requests seen by one server.
///     pub struct ServerCounters {
///         /// Requests served.
///         served: sum,
///         /// Deepest queue seen.
///         max_queue: max,
///     }
///     /// A point-in-time copy of [`ServerCounters`].
///     pub struct ServerSnapshot;
/// }
///
/// let c = ServerCounters::default();
/// c.served.inc();
/// c.max_queue.raise(4);
/// assert_eq!((c.served(), c.max_queue()), (1, 4));
/// let mut s = c.snapshot();
/// s.merge(&ServerSnapshot { served: 2, max_queue: 3 });
/// assert_eq!(s, ServerSnapshot { served: 3, max_queue: 4 });
/// ```
///
/// Each field is `name: sum` or `name: max` (see the [module
/// docs](crate::counter)); its doc comment documents the atomic field, the
/// getter and the snapshot field alike.
#[macro_export]
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@delta sum, $later:expr, $earlier:expr) => { $later - $earlier };
    (@delta max, $later:expr, $earlier:expr) => { $later };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $rule:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: $crate::Counter, )*
        }

        impl $name {
            $(
                $(#[$fmeta])*
                pub fn $field(&self) -> u64 {
                    self.$field.get()
                }
            )*
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $rule:ident ),* $(,)?
        }
        $(#[$smeta:meta])*
        $svis:vis struct $snap:ident;
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$fmeta])* $field: $rule, )* }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// Copy every counter into a plain snapshot (relaxed loads, one
            /// field at a time: exact whenever no writer is mid-update).
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.get(), )* }
            }
        }

        impl $snap {
            /// Fold `other` into `self`: `sum` fields add, `max` fields keep
            /// the larger value.
            pub fn merge(&mut self, other: &$snap) {
                $( $crate::counters!(@merge $rule, self.$field, other.$field); )*
            }

            /// The change from `earlier` to `self` (taken later): `sum` fields
            /// subtract, `max` fields keep `self`'s value.
            pub fn delta_since(&self, earlier: &$snap) -> $snap {
                $snap { $( $field: $crate::counters!(@delta $rule, self.$field, earlier.$field), )* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// A family with one field of each rule.
        pub struct Probe {
            /// A count.
            events: sum,
            /// Another count.
            bytes: sum,
            /// A high-water mark.
            peak: max,
        }
        /// A copy of [`Probe`].
        pub struct ProbeSnapshot;
    }

    #[test]
    fn one_declaration_yields_getters_snapshot_merge_and_delta() {
        let snap = |events, bytes, peak| ProbeSnapshot {
            events,
            bytes,
            peak,
        };
        let p = Probe::default();
        p.events.inc();
        p.bytes.add(40);
        p.peak.raise(7);
        p.peak.raise(3);
        let s = p.snapshot();
        assert_eq!(s, snap(1, 40, 7));
        assert_eq!(
            (p.events(), p.bytes(), p.peak()),
            (s.events, s.bytes, s.peak)
        );

        // merge: `sum` adds, `max` keeps the larger.
        let mut m = s;
        m.merge(&snap(2, 2, 5));
        assert_eq!(m, snap(3, 42, 7));
        m.merge(&snap(0, 0, 9));
        assert_eq!(m.peak, 9);

        // delta_since: `sum` subtracts, `max` keeps the later value even when
        // it is lower (a reset high-water mark).
        p.events.add(4);
        p.peak.set(2);
        assert_eq!(p.snapshot().delta_since(&s), snap(4, 0, 2));

        // A count made on another thread is visible.
        std::thread::scope(|scope| {
            scope.spawn(|| p.bytes.add(2));
        });
        assert_eq!(p.bytes(), 42);
    }
}
