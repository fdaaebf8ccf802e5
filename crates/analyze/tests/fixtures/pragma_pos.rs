//! Positive fixture: an `es-allow` pragma naming an unregistered rule
//! (a typo) — the wall-clock finding it meant to suppress stays
//! active — and a well-formed one with no finding on its line or the
//! line below. Expect one `pragma` finding for each.

pub fn stamp_ns() -> u64 {
    // es-allow(wallclock): typo'd rule id must not suppress anything
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn elapsed_ns(since: std::time::Instant) -> u64 {
    // es-allow(wall-clock): nothing below reads the clock any more
    since.elapsed().as_nanos() as u64
}
