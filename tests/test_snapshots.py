"""The answer snapshots in tests/data, diffed through `snapshots`: every entry
Tier-1 runs matches its file, and a changed digit in any file shows."""

import pytest

import snapshots
from snapshots import SNAPSHOTS, Call, WrongExitCode


@pytest.mark.parametrize("name", [name for name, entry in SNAPSHOTS.items() if entry.tier1])
def test_matches_the_recorded_file(name):
    lines = snapshots.diff(name)
    assert not lines, "".join(lines)


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_a_changed_digit_shows_in_the_diff(name, tmp_path):
    text = snapshots.recorded(name)
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    (tmp_path / SNAPSHOTS[name].file).write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    # an entry that only CI runs is compared with its recorded text
    afresh = None if SNAPSHOTS[name].tier1 else text
    assert snapshots.diff(name, tmp_path, afresh)


def test_every_file_has_one_entry():
    assert sorted(entry.file for entry in SNAPSHOTS.values()) == sorted(p.name for p in snapshots.DATA.iterdir())


def test_a_call_must_give_its_exit_code():
    # the Hilbert reach accepts exit 1 only for its recorded refusal
    with pytest.raises(WrongExitCode, match="exited 1, expected 0"):
        snapshots.run(Call("hilbert 30,0,0,0,0,30 --upto 20"))
    with pytest.raises(WrongExitCode, match="exited 0, expected 1"):
        snapshots.run(Call("hilbert 30,0,0,0,0,30 --upto 63", code=1))
    with pytest.raises(WrongExitCode, match="exited 2, expected 0"):
        snapshots.run(Call("classify 3,3,3"))


def test_main_exits_1_on_a_difference_or_a_crash(monkeypatch, capsys):
    assert snapshots.main(["reduce_trace", "gin_examples"]) == 0
    monkeypatch.setattr(snapshots, "fresh", lambda name: "")
    assert snapshots.main(["reduce_trace"]) == 1
    assert "reduce_trace: DIFFERS" in capsys.readouterr().out

    def crash(name):
        raise ValueError("a defect")

    monkeypatch.setattr(snapshots, "fresh", crash)
    assert snapshots.main(["gin_examples"]) == 1
    assert "ValueError: a defect" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        snapshots.main(["no_such_entry"])
    assert exc.value.code == 2
