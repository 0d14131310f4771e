//! R006 fixture: growth disciplined both sanctioned ways — a
//! dominating `with_capacity` reservation, and a `&mut` out-param
//! whose reservation is the caller's job.

/// Reserves exactly once, then grows within the reservation.
pub fn doubled(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    for &x in xs {
        out.push(x.saturating_mul(2));
    }
    out
}

/// Growth into a caller-owned buffer.
pub fn doubled_into(xs: &[u64], out: &mut Vec<u64>) {
    for &x in xs {
        out.push(x.saturating_mul(2));
    }
}

/// The same out-param discipline with a `fn`-pointer parameter after
/// it: the signature is read from the item's own `fn` keyword, so the
/// pointer type's `fn` does not hide `out: &mut`.
pub fn mapped_into(out: &mut Vec<u64>, xs: &[u64], f: fn(u64) -> u64) {
    for &x in xs {
        out.push(f(x));
    }
}
