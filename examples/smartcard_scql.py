"""Smartcard scenario: an SCQL-like dialect for a bank-card purse.

ISO 7816-7 (SCQL) gives smartcards a drastically restricted SQL: single
tables, simple predicates, basic DML.  The paper cites it (with PicoDBMS)
as the motivating case for scaled-down SQL.  This demo composes such a
dialect, shows how much smaller its parser footprint is than full SQL, and
runs a purse debit/credit flow on the engine.

Run:  python examples/smartcard_scql.py
"""

from repro import Database, build_dialect
from repro.errors import ExecutionError, ReproError


def footprint(name: str) -> str:
    product = build_dialect(name)
    size = product.size()
    table = product.parser().table.metrics()
    return (
        f"{name:8} rules={size['rules']:3}  tokens={size['tokens']:3}  "
        f"LL-table entries={table['entries']:4}"
    )


def main() -> None:
    print("parser footprint, smartcard dialect vs full SQL:2003:")
    print(" ", footprint("scql"))
    print(" ", footprint("full"))
    print()

    card = Database("scql")
    card.execute("CREATE TABLE purse (id INT, balance INT)")
    card.execute("CREATE TABLE journal (op CHAR(10), amount INT)")
    card.execute("INSERT INTO purse VALUES (1, 5000)")
    card.commit()

    def debit(amount: int) -> None:
        balance = card.query("SELECT balance FROM purse WHERE id = 1").scalar()
        if balance < amount:
            card.rollback()
            raise ExecutionError("insufficient funds")
        card.execute(f"UPDATE purse SET balance = {balance - amount} WHERE id = 1")
        card.execute(f"INSERT INTO journal VALUES ('debit', {amount})")
        card.execute("COMMIT")

    debit(1500)
    debit(2000)
    try:
        debit(9000)
    except ExecutionError as error:
        print("card refused:", error)

    balance = card.query("SELECT balance FROM purse WHERE id = 1").scalar()
    entries = card.query("SELECT op, amount FROM journal").rows
    print(f"balance after debits: {balance}")
    print(f"journal: {entries}")
    print()

    # the card's parser physically lacks the risky/expensive constructs
    for rejected in [
        "SELECT p.balance FROM purse p, journal j",  # joins
        "SELECT SUM(amount) FROM journal",  # aggregation
        "GRANT SELECT ON purse TO PUBLIC",  # DCL
        "SELECT balance FROM purse UNION SELECT amount FROM journal",
    ]:
        try:
            card.execute(rejected)
            print("UNEXPECTEDLY ACCEPTED:", rejected)
        except ReproError:  # a ParseError, or a ScanError for the '.'
            print("not in the card's SQL:", rejected)


if __name__ == "__main__":
    main()
