"""SmallBank workload tests: program semantics and anomaly behaviour."""

import random

import pytest

from repro import Database, EngineConfig
from repro.errors import ConstraintError, TransactionAbortedError
from repro.sim.direct import run_program
from repro.workloads import smallbank
from repro.workloads.smallbank import (
    amalgamate,
    balance,
    customer_name,
    deposit_checking,
    make_smallbank,
    setup_smallbank,
    transact_saving,
    write_check,
)


@pytest.fixture
def db():
    database = Database(EngineConfig(record_history=True))
    setup_smallbank(database, customers=10)
    return database


NAME = customer_name(3)


class TestPrograms:
    def test_balance_sums_accounts(self, db):
        assert run_program(db, balance(NAME)) == 2000.0

    def test_deposit_checking(self, db):
        run_program(db, deposit_checking(NAME, 50.0))
        assert run_program(db, balance(NAME)) == 2050.0

    def test_deposit_negative_rolls_back(self, db):
        with pytest.raises(ConstraintError):
            run_program(db, deposit_checking(NAME, -5.0))
        assert run_program(db, balance(NAME)) == 2000.0

    def test_transact_saving_withdrawal_and_overdraft_rule(self, db):
        run_program(db, transact_saving(NAME, -1000.0))
        with pytest.raises(ConstraintError):
            run_program(db, transact_saving(NAME, -1.0))
        assert run_program(db, balance(NAME)) == 1000.0

    def test_unknown_customer_rolls_back(self, db):
        with pytest.raises(ConstraintError):
            run_program(db, transact_saving("nobody", 10.0))

    def test_amalgamate_moves_funds(self, db):
        other = customer_name(7)
        run_program(db, amalgamate(NAME, other))
        assert run_program(db, balance(NAME)) == 0.0
        assert run_program(db, balance(other)) == 4000.0

    def test_self_amalgamate_keeps_the_money(self):
        """Amalgamating a customer with themself folds Saving into
        Checking; it must not zero the row it just wrote."""
        db = Database(EngineConfig())
        setup_smallbank(db, customers=3)
        name = customer_name(0)

        def total():
            return sum(run_program(db, balance(customer_name(i)))
                       for i in range(3))

        before = total()
        run_program(db, amalgamate(name, name))
        assert total() == before
        txn = db.begin("si")
        cid = db.read(txn, smallbank.ACCOUNT, name)
        assert db.read(txn, smallbank.SAVING, cid) == 0.0
        assert db.read(txn, smallbank.CHECKING, cid) == 2000.0
        db.commit(txn)

    def test_write_check_normal(self, db):
        run_program(db, write_check(NAME, 100.0))
        assert run_program(db, balance(NAME)) == 1900.0

    def test_write_check_overdraft_penalty(self, db):
        run_program(db, write_check(NAME, 2500.0))
        # checking drops by 2500 + 1 penalty
        assert run_program(db, balance(NAME)) == 2000.0 - 2501.0


class TestAnomaly:
    def _race(self, db, variant):
        """Bal concurrent with WC and TS on one customer — the SmallBank
        dangerous structure.  Returns (statuses, final_balance_seen)."""
        from repro.sim.interleave import run_interleaving

        def setup(database):
            setup_smallbank(database, customers=4)

        def prog_wc():
            return smallbank.write_check_variant(NAME_0, 1500.0, variant)

        def prog_ts():
            return smallbank.transact_saving_variant(NAME_0, -600.0, variant)

        NAME_0 = customer_name(0)
        statuses = []
        # One representative dangerous interleaving: WC reads, TS runs
        # fully, WC writes.
        outcome = run_interleaving(
            setup,
            [prog_wc, prog_ts],
            order=[0, 0, 0, 1, 1, 1, 1, 0, 0],
            isolation="ssi",
        )
        return outcome

    def test_wc_ts_race_never_loses_overdraft_decision_at_ssi(self, db):
        outcome = self._race(db, "plain")
        # At least one of the two conflicting update programs aborted, or
        # the interleaving was serializable anyway.
        from repro.sgt.checker import check_serializable
        assert check_serializable(outcome.db.history).serializable


class TestWorkloadFactory:
    def test_setup_populates_tables(self):
        workload = make_smallbank(customers=25)
        db = Database(EngineConfig())
        workload.setup(db)
        assert len(db.table(smallbank.ACCOUNT)) == 25
        assert len(db.table(smallbank.SAVING)) == 25
        assert len(db.table(smallbank.CONFLICT)) == 25

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_smallbank(variant="bogus")

    def test_single_op_programs_complete(self):
        workload = make_smallbank(customers=10)
        db = Database(EngineConfig())
        workload.setup(db)
        rng = random.Random(0)
        for _round in range(30):
            _name, program = workload.next_transaction(rng)
            try:
                run_program(db, program, isolation="ssi")
            except (ConstraintError, TransactionAbortedError):
                pass
        assert db.stats["commits"] > 0

    def test_compound_programs_run_ten_ops(self):
        workload = make_smallbank(customers=10, ops_per_txn=10)
        db = Database(EngineConfig())
        workload.setup(db)
        rng = random.Random(1)
        reads_before = db.stats["reads"]
        _name, program = workload.next_transaction(rng)
        try:
            run_program(db, program, isolation="si")
        except (ConstraintError, TransactionAbortedError):
            pass
        # ten SmallBank ops touch many more rows than a single op
        assert db.stats["reads"] - reads_before >= 10

    @pytest.mark.parametrize(
        "variant", ["materialize_wt", "promote_wt", "materialize_bw", "promote_bw"]
    )
    def test_variant_workloads_run(self, variant):
        workload = make_smallbank(customers=10, variant=variant)
        db = Database(EngineConfig())
        workload.setup(db)
        rng = random.Random(2)
        committed = 0
        for _round in range(40):
            _name, program = workload.next_transaction(rng)
            try:
                run_program(db, program, isolation="si")
                committed += 1
            except (ConstraintError, TransactionAbortedError):
                pass
        assert committed > 0


class TestMoneyConservation:
    def test_total_money_conserved_under_ssi(self):
        """DC/TS inject money; WC removes it; Amg/Bal conserve.  Run a
        sequential mix and check the books balance exactly."""
        db = Database(EngineConfig())
        setup_smallbank(db, customers=8)
        rng = random.Random(3)
        delta = 0.0
        for _round in range(60):
            kind = rng.randrange(4)
            name = customer_name(rng.randrange(8))
            amount = float(rng.randint(1, 50))
            try:
                if kind == 0:
                    run_program(db, deposit_checking(name, amount))
                    delta += amount
                elif kind == 1:
                    run_program(db, transact_saving(name, amount))
                    delta += amount
                elif kind == 2:
                    other = customer_name(rng.randrange(8))
                    if other != name:
                        run_program(db, amalgamate(name, other))
                else:
                    before = run_program(db, balance(name))
                    run_program(db, write_check(name, amount))
                    delta -= amount + (1.0 if before < amount else 0.0)
            except ConstraintError:
                pass
        total = sum(
            run_program(db, balance(customer_name(i))) for i in range(8)
        )
        assert total == pytest.approx(8 * 2000.0 + delta)
