//! Live-advisor equivalence: the delta-maintained designer loop must be
//! indistinguishable from the paper's batch loop at **every epoch**.
//!
//! For seeded 200-step delta streams (and proptest-generated random
//! ones), after every single applied delta the [`LiveAdvisor`]'s visible
//! state — which FDs are satisfied or violated, and the full ranked
//! proposal list per violated FD (order, added sets, measures) — must
//! equal a fresh [`AdvisorSession::analyze`] over a canonical snapshot.
//! The durable variant replays the same stream through a
//! [`DurableRelation`], kills and reopens the table twice mid-stream, and
//! tails a replica over the shipped WAL — the advisor session (including
//! designer decisions) must survive both, byte-for-byte in the snapshot
//! image and state-for-state in the advisor.

use evofd::core::{AdvisorSession, Fd, FdState, Repair};
use evofd::incremental::{
    Delta, IncrementalValidator, LiveAdvisor, LiveFdState, LiveRelation, ValidatorConfig,
};
use evofd::persist::{DirTransport, DurableRelation, PersistOptions, ReplicaState};
use evofd::storage::{DataType, Field, Relation, Schema, Value};
use proptest::prelude::*;

/// Deterministic xorshift step for the seeded streams.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn schema() -> std::sync::Arc<Schema> {
    let mut fields: Vec<Field> =
        (0..4).map(|i| Field::not_null(format!("a{i}"), DataType::Int)).collect();
    // A near-unique attribute (the paper's UNIQUE-like column): it can
    // repair almost any violated FD, so proposal lists are non-trivial.
    fields.push(Field::not_null("u", DataType::Int));
    Schema::new("live", fields).expect("unique names").into_shared()
}

fn row(state: &mut u64, span: u64) -> Vec<Value> {
    let mut vals: Vec<Value> = (0..4).map(|_| Value::Int((next(state) % span) as i64)).collect();
    vals.push(Value::Int((next(state) % (1 << 30)) as i64));
    vals
}

fn base_relation(seed: u64) -> (Relation, Vec<Fd>) {
    let mut state = seed | 1;
    let rows: Vec<Vec<Value>> = (0..12).map(|_| row(&mut state, 4)).collect();
    let rel = Relation::from_rows(schema(), rows).expect("typed rows");
    let fds = vec![
        Fd::parse(rel.schema(), "a0 -> a1").unwrap(),
        Fd::parse(rel.schema(), "a1, a2 -> a3").unwrap(),
    ];
    (rel, fds)
}

/// One random delta against the current live rows.
fn random_delta(live: &LiveRelation, state: &mut u64) -> Delta {
    let kind = next(state) % 6;
    let mut delta = Delta::new();
    if kind <= 2 || live.row_count() == 0 {
        // Insert 1–3 rows; a narrow value span keeps FDs drifting in and
        // out of violation instead of diluting into near-uniqueness.
        for _ in 0..=(next(state) % 3) {
            delta.inserts.push(row(state, 4));
        }
    } else if kind <= 4 {
        // Delete 1–2 live rows.
        let live_rows: Vec<usize> = live.live_rows().collect();
        let n = 1 + (next(state) % 2) as usize;
        for i in 0..n.min(live_rows.len()) {
            let pick = live_rows[(next(state) as usize) % live_rows.len()];
            if !delta.deletes.contains(&pick) {
                delta.deletes.push(pick);
            }
            let _ = i;
        }
    } else {
        // Mixed batch.
        delta.inserts.push(row(state, 4));
        let live_rows: Vec<usize> = live.live_rows().collect();
        if !live_rows.is_empty() {
            delta.deletes.push(live_rows[(next(state) as usize) % live_rows.len()]);
        }
    }
    delta
}

/// The oracle: every undecided FD's live state and proposal list must
/// equal a fresh batch analysis over a canonical snapshot.
fn assert_matches_batch(snapshot: &Relation, fds: &[Fd], advisor: &LiveAdvisor, context: &str) {
    let mut session = AdvisorSession::new(snapshot, fds.to_vec());
    session.analyze().unwrap_or_else(|e| panic!("{context}: batch analyze failed: {e}"));
    for i in 0..fds.len() {
        let live_state = advisor.state(i).expect("tracked FD");
        if live_state.decided() {
            continue;
        }
        match (live_state, session.state(i).expect("tracked FD")) {
            (LiveFdState::Satisfied, FdState::Satisfied) => {}
            (LiveFdState::Violated { index }, FdState::Violated { proposals, truncated }) => {
                assert!(!truncated, "{context}: oracle truncated");
                let ours: &[Repair] = index.proposals();
                assert_eq!(ours.len(), proposals.len(), "{context}: FD #{i} proposal count");
                for (j, (a, b)) in ours.iter().zip(proposals.iter()).enumerate() {
                    assert_eq!(a.added, b.added, "{context}: FD #{i} proposal #{j} added");
                    assert_eq!(a.fd, b.fd, "{context}: FD #{i} proposal #{j} evolved FD");
                    assert_eq!(a.measures, b.measures, "{context}: FD #{i} proposal #{j} measures");
                }
            }
            (ours, theirs) => {
                panic!("{context}: FD #{i} live {} vs batch {theirs:?}", ours.label())
            }
        }
    }
}

#[test]
fn seeded_200_step_stream_matches_batch_at_every_epoch() {
    let (rel, fds) = base_relation(2016);
    let mut live = LiveRelation::new(rel);
    let mut validator = IncrementalValidator::new(&live, fds.clone());
    let mut advisor = LiveAdvisor::new(&live, &validator);
    let mut state = 0xE0FD_2016u64;

    let mut incremental_steps = 0;
    for step in 0..200 {
        let delta = random_delta(&live, &mut state);
        let applied = live.apply(&delta).expect("valid delta");
        validator.apply(&live, &applied);
        advisor.apply(&live, &validator, &applied);
        if live.maybe_compact() > 0 {
            validator.resync(&live);
            advisor.resync(&live, &validator);
        }
        assert_matches_batch(&live.snapshot(), &fds, &advisor, &format!("step {step}"));
        incremental_steps += 1;
    }
    assert_eq!(incremental_steps, 200);
    assert!(
        advisor.stats().incremental > 150,
        "most steps absorbed incrementally: {:?}",
        advisor.stats()
    );
}

#[test]
fn seeded_stream_with_decisions_keeps_them_sticky() {
    let (rel, fds) = base_relation(77);
    let mut live = LiveRelation::new(rel);
    let mut validator = IncrementalValidator::new(&live, fds.clone());
    let mut advisor = LiveAdvisor::new(&live, &validator);
    let mut state = 0xDEC1_5105u64;

    let mut decided: Option<usize> = None;
    for step in 0..120 {
        let delta = random_delta(&live, &mut state);
        let applied = live.apply(&delta).expect("valid delta");
        validator.apply(&live, &applied);
        advisor.apply(&live, &validator, &applied);

        // First time any FD has a proposal, accept it; it must stay
        // decided for the rest of the stream whatever the data does.
        if decided.is_none() {
            for i in advisor.pending() {
                if !advisor.proposals(i).unwrap().is_empty() {
                    advisor.accept(i, 0).unwrap();
                    decided = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = decided {
            assert!(
                matches!(advisor.state(i).unwrap(), LiveFdState::Evolved { .. }),
                "step {step}: decision must stick"
            );
        }
        assert_matches_batch(&live.snapshot(), &fds, &advisor, &format!("step {step}"));
    }
    assert!(decided.is_some(), "the stream produced at least one proposal");
    assert_eq!(advisor.decisions().len(), 1);
}

#[test]
fn durable_200_step_stream_survives_kill_reopen_and_replica() {
    let dir = std::env::temp_dir()
        .join(format!("evofd_live_advisor_equiv_{}", std::process::id()))
        .join("leader");
    let replica_dir = std::env::temp_dir()
        .join(format!("evofd_live_advisor_equiv_{}", std::process::id()))
        .join("replica");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);

    let (rel, mut fds) = base_relation(4242);
    let mut leader = DurableRelation::create(
        &dir,
        rel,
        fds.clone(),
        ValidatorConfig::default(),
        PersistOptions::default(),
    )
    .unwrap();
    leader.ensure_advisor().unwrap();
    // The follower bootstraps from the shipped snapshot and tails the
    // leader's WAL file lock-free, exactly like `evofd follow`.
    let mut transport = DirTransport::new(&dir);
    let mut replica =
        ReplicaState::open_or_bootstrap(&replica_dir, &mut transport, PersistOptions::default())
            .unwrap();
    // Materialize the replica's advisor session up front: it must stay
    // current under ingested deltas, compactions and decisions.
    replica.table_mut().ensure_advisor().unwrap();

    let mut state = 0x5EED_4242u64;
    let mut decided = false;
    for step in 0..200 {
        // Build the delta against the leader's live view.
        let delta = random_delta(leader.live(), &mut state);
        leader.apply(&delta).expect("valid delta");

        // The designer rules once, mid-stream, as soon as a proposal is up.
        // Accepting REPLACES the original FD with the evolved one in the
        // tracked set, so the oracle's FD list follows the swap.
        if !decided && step >= 60 {
            let advisor = leader.ensure_advisor().unwrap();
            let candidate =
                advisor.pending().into_iter().find(|&i| !advisor.proposals(i).unwrap().is_empty());
            if let Some(i) = candidate {
                let chosen = leader.accept_repair(i, 0).unwrap();
                fds[i] = chosen.fd.clone();
                decided = true;
            }
        }

        // Kill and reopen the leader twice mid-stream.
        if step == 67 || step == 133 {
            drop(leader);
            leader = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
            leader.ensure_advisor().unwrap();
        }

        // The replica tails whatever the leader has journaled so far.
        replica.sync(&mut transport).unwrap();

        // Equivalence at every epoch: the leader's advisor vs a fresh
        // batch session, the replica's maintained advisor vs the same
        // oracle, and the replica byte-identical to the leader.
        let snapshot = leader.live().snapshot();
        let advisor = leader.ensure_advisor().unwrap();
        assert_matches_batch(&snapshot, &fds, advisor, &format!("durable step {step}"));
        let replica_advisor = replica.table_mut().ensure_advisor().unwrap();
        assert_matches_batch(&snapshot, &fds, replica_advisor, &format!("replica step {step}"));
        assert_eq!(
            leader.encode_current_snapshot(),
            replica.table().encode_current_snapshot(),
            "durable step {step}: replica image diverged"
        );
        assert_eq!(leader.decisions(), replica.table().decisions(), "durable step {step}");
    }
    assert!(decided, "the stream produced at least one accepted repair");
    // The replica's advisor session restores the leader's decision state.
    let leader_evolved = leader.ensure_advisor().unwrap().evolved_fds();
    let follower_advisor = replica.table_mut().ensure_advisor().unwrap();
    assert_eq!(follower_advisor.decisions(), leader.decisions());
    assert_eq!(follower_advisor.evolved_fds(), leader_evolved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random relations, FDs and delta streams: the live advisor equals
    /// the batch session at every epoch.
    #[test]
    fn random_streams_match_batch(
        seed in 1u64..1_000_000,
        steps in 10usize..40,
        lhs in 0usize..4,
        rhs in 0usize..4,
    ) {
        let (rel, mut fds) = base_relation(seed);
        // A third random FD stresses shapes the seeded tests never pick.
        let rhs_attr = evofd::storage::AttrId::from(rhs);
        let lhs_set = evofd::storage::AttrSet::single(evofd::storage::AttrId::from(lhs))
            .without(rhs_attr);
        let extra = Fd::new(lhs_set, evofd::storage::AttrSet::single(rhs_attr)).expect("non-empty");
        if !fds.contains(&extra) {
            fds.push(extra);
        }

        let mut live = LiveRelation::new(rel);
        let mut validator = IncrementalValidator::new(&live, fds.clone());
        let mut advisor = LiveAdvisor::new(&live, &validator);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;

        for step in 0..steps {
            let delta = random_delta(&live, &mut state);
            let applied = live.apply(&delta).expect("valid delta");
            validator.apply(&live, &applied);
            advisor.apply(&live, &validator, &applied);
            if live.maybe_compact() > 0 {
                validator.resync(&live);
                advisor.resync(&live, &validator);
            }
            assert_matches_batch(&live.snapshot(), &fds, &advisor, &format!("case step {step}"));
        }
    }
}
