// Positive fixture: a heal-component journal event that names its
// action but not its target — the healing-journal contract requires
// both.
fn broken(journal: &Journal, now: Stamp) {
    journal.emit(
        now,
        Severity::Warn,
        "heal",
        "receiver recovered",
        &[("action", "recovered".into())],
    );
}
