//! Field-list macros: a record names its fields once, in one list, and
//! every impl that must visit each field is generated from that list.
//!
//! Each macro destructures the whole struct without `..`, so a field that
//! is declared but missing from the list is a compile error rather than a
//! field silently left out of a copy or a counter walk.

/// Implements `Clone` for a struct from one list of its fields: `clone`
/// clones each field, and `clone_from` calls `clone_from` on each field,
/// so the destination's containers keep their allocations. The
/// slack-window checkpoint re-snapshots into the previous window's
/// buffers this way, allocation-free in the steady state.
///
/// A field missing from the list does not compile:
///
/// ```compile_fail
/// struct Pair {
///     a: Vec<u8>,
///     b: u64,
/// }
/// slipstream_isa::clone_in_place!(Pair { a });
/// ```
#[macro_export]
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> $ty {
                $ty { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, src: &$ty) {
                let $ty { $($field),+ } = self;
                $($field.clone_from(&src.$field);)+
            }
        }
    };
}

/// Lists a statistics struct's `u64` counters once, in declaration order,
/// and generates from that list:
///
/// - `counters_mut`: every counter as a `(name, &mut field)` pair — what
///   the run file writes and reads, under those names, in that order;
/// - `zip_counters`: a copy of `self` whose counters are `op` applied to
///   each counter and the same counter of another value — what interval
///   deltas and sums are built from.
///
/// Fields that are not plain counters go in the `skip` list and are the
/// caller's to handle. A field added to the struct does not compile until
/// it is listed in one of the two.
#[macro_export]
macro_rules! counter_list {
    ($ty:ident { $($f:ident),+ $(,)? } $(skip { $($skip:ident),+ $(,)? })?) => {
        impl $ty {
            /// Every counter as `(name, &mut field)`, in declaration order.
            pub fn counters_mut(
                &mut self,
            ) -> [(&'static str, &mut u64); [$(stringify!($f)),+].len()] {
                let $ty { $($f,)+ $($($skip: _,)+)? } = self;
                [$((stringify!($f), $f)),+]
            }

            /// `self` with each counter replaced by `op(self's, other's)`;
            /// skipped fields keep `self`'s values.
            pub fn zip_counters(&self, other: &$ty, op: fn(u64, u64) -> u64) -> $ty {
                let (mut out, mut other) = (*self, *other);
                for ((_, a), (_, b)) in out.counters_mut().into_iter().zip(other.counters_mut()) {
                    *a = op(*a, *b);
                }
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    #[derive(Debug, PartialEq)]
    struct Rec {
        data: Vec<u64>,
        tag: u32,
    }
    crate::clone_in_place!(Rec { data, tag });

    #[test]
    fn clone_from_keeps_the_destination_buffer() {
        let src = Rec {
            data: vec![1, 2, 3],
            tag: 7,
        };
        let mut dst = Rec {
            data: Vec::with_capacity(64),
            tag: 0,
        };
        dst.data.extend([9; 10]);
        let (ptr, cap) = (dst.data.as_ptr(), dst.data.capacity());
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.as_ptr(), ptr, "the buffer was reused");
        assert_eq!(dst.data.capacity(), cap);
        assert_eq!(src.clone(), src);
    }

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Counts {
        hits: u64,
        misses: u64,
        last: Option<u64>,
    }
    crate::counter_list!(Counts { hits, misses } skip { last });

    #[test]
    fn counters_are_named_in_declaration_order_and_zip_pairwise() {
        let mut c = Counts {
            hits: 5,
            misses: 2,
            last: Some(9),
        };
        let names: Vec<&str> = c.counters_mut().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["hits", "misses"]);
        let earlier = Counts {
            hits: 1,
            misses: 3,
            last: None,
        };
        let d = c.zip_counters(&earlier, u64::saturating_sub);
        assert_eq!(
            d,
            Counts {
                hits: 4,
                misses: 0,
                last: Some(9),
            }
        );
    }
}
