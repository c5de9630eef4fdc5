//! Ticket lifecycle: a ticket redeems once, its slot is then reused by a
//! later submission, and a stale ticket can never read the new
//! occupant's outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lqo_engine::datagen::stats_like;
use lqo_engine::query::parse_query;
use lqo_pilot::EngineInteractor;
use lqo_serve::{LqoServer, ServeConfig, SessionRequest};

#[test]
fn a_reused_slot_never_answers_a_stale_ticket() {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let srv = LqoServer::new(
        Arc::new(EngineInteractor::new(catalog)),
        ServeConfig::default(),
    );
    let small = parse_query("SELECT COUNT(*) FROM users u WHERE u.reputation > 50").unwrap();
    let join = parse_query(
        "SELECT COUNT(*) FROM users u, posts p \
         WHERE u.id = p.owner_user_id AND u.reputation > 10",
    )
    .unwrap();
    let first = srv.submit(SessionRequest::new("a", small)).unwrap();
    let old = srv.wait(first);
    assert_eq!(old.seq, 0);
    let old_count = old.result.clone().unwrap().count;
    // The only slot is free again: the next submission takes it.
    let second = srv.submit(SessionRequest::new("b", join)).unwrap();
    assert_ne!(first, second, "a reused slot carries a new generation");
    let stale = catch_unwind(AssertUnwindSafe(|| srv.wait(first)));
    let msg = stale.expect_err("a redeemed ticket must not redeem again");
    let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("already redeemed"), "{msg}");
    // The new occupant's outcome is its own, and the server still works.
    let new = srv.wait(second);
    assert_eq!((new.tenant.as_str(), new.seq), ("b", 1));
    assert_ne!(new.result.unwrap().count, old_count);
    let again = catch_unwind(AssertUnwindSafe(|| srv.wait(second)));
    assert!(again.is_err(), "a ticket redeems once, reused slot or not");
}
