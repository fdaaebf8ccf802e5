// Negative fixture: heal events with the full (action, target)
// contract, plus a non-heal event the rule must leave alone.
fn fine(journal: &Journal, now: Stamp) {
    journal.emit(
        now,
        Severity::Warn,
        "heal",
        "standby promoted after control stall",
        &[("action", "failover".into()), ("target", "ch0".into())],
    );
    journal.emit(
        now,
        Severity::Info,
        "heal",
        "receiver recovered",
        &[("action", "recovered".into()), ("target", "es1".into())],
    );
    journal.emit(
        now,
        Severity::Warn,
        "net",
        "receiver degraded",
        &[("node", "es1".into())],
    );
}
