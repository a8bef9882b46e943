"""Exit codes, output shapes, and flag plumbing for every subcommand.

The daemon subcommands block, so they get one subprocess round trip at
the end; everything else runs in-process through main().
"""

import csv
import json
import re
import select
import signal
import socket
import subprocess
import sys

import pytest

from lluad.cli import main
from lluad.curve import decode_element
from lluad.dnsmsg import build_query, parse_response
from lluad.poplist import build_list, serialize
from lluad.traces import SyntheticUniverse, UniverseConfig, load_trace_csv
from lluad.wire import encode_list_snapshot


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- exit codes ---------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run() == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run("keygen", "--frobnicate") == 2
    capsys.readouterr()


def test_missing_required_value(tmp_path, capsys):
    assert run("sim", "latency", "--hit", "0.9") == 2
    assert "--mode" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.bin"
    assert run("list", "inspect", str(missing)) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_latency_mode_exits_1(tmp_path, capsys):
    out = tmp_path / "l.csv"
    rc = run("sim", "latency", "--mode", "pigeon", "--hit", "0.9", "--out", str(out))
    assert rc == 1
    capsys.readouterr()


# -- keygen ---------------------------------------------------------------------


def test_keygen_seeded_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.key"
    b = tmp_path / "b.key"
    assert run("keygen", "--seed", "9", "--out", str(a)) == 0
    assert run("keygen", "--seed", "9", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()
    priv_hex, pub_hex = a.read_text().split()
    assert int(priv_hex, 16) > 0
    decode_element(bytes.fromhex(pub_hex))  # must be a valid element


# -- trace gen -------------------------------------------------------------------


def test_trace_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run(
        "trace", "gen", "--zipf", "1.0", "--universe", "400", "--clients", "6",
        "--hours", "2", "--queries", "10", "--seed", "3", "--out", str(out),
    )
    assert rc == 0
    trace = load_trace_csv(str(out))
    assert len(trace.events) == 6 * 2 * 10
    assert len(trace.clients) == 6
    capsys.readouterr()


def test_config_file_feeds_defaults(tmp_path, capsys):
    conf = tmp_path / "lluad.conf"
    conf.write_text("clients = 7\nhours = 2\nqueries = 5\nuniverse = 300\n")
    out = tmp_path / "t.csv"
    assert run("trace", "gen", "--config", str(conf), "--out", str(out)) == 0
    assert len(load_trace_csv(str(out)).clients) == 7

    flagged = tmp_path / "t2.csv"
    rc = run(
        "trace", "gen", "--config", str(conf), "--clients", "4", "--out", str(flagged)
    )
    assert rc == 0
    assert len(load_trace_csv(str(flagged)).clients) == 4  # flag beats config
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("server", "--max-votes", "5"),
        ("server", "--voting-rate", "0.5"),
        ("server", "--fast-start", "4"),
        ("server", "--out", "x"),
        ("client", "--seed", "1"),
        ("client", "--out", "x"),
        ("keygen", "--config", "x"),
        ("sim", "exposure", "--seed", "1"),
        ("list", "inspect", "snap.bin", "--seed", "1"),
        ("list", "inspect", "snap.bin", "--config", "x"),
    ],
)
def test_flags_nothing_reads_are_rejected(argv, capsys):
    assert run(*argv) == 2
    assert argv[-2] in capsys.readouterr().err


def test_bad_config_value_names_the_setting(tmp_path, capsys):
    conf = tmp_path / "lluad.conf"
    conf.write_text("quota = many\n")
    out = tmp_path / "b.csv"
    rc = run("sim", "bandwidth", "--config", str(conf), "--out", str(out))
    assert rc != 0
    assert "quota" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_without_a_flag_are_ignored(tmp_path, capsys):
    plain = tmp_path / "plain.conf"
    plain.write_text("clients = 3\nhours = 1\nqueries = 4\nuniverse = 200\n")
    mixed = tmp_path / "mixed.conf"
    # server and client keys trace gen has no flag for, even malformed ones
    mixed.write_text(plain.read_text() + "quota = many\nvoting_rate = 0.5\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("trace", "gen", "--config", str(plain), "--out", str(a)) == 0
    assert run("trace", "gen", "--config", str(mixed), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_config_cannot_set_a_switch(tmp_path, capsys):
    conf = tmp_path / "lluad.conf"
    conf.write_text("browser_cache = 1\n")
    plain, argv = hit_ratio_args(tmp_path, "plain.csv")
    assert run(*argv) == 0
    configured, argv = hit_ratio_args(tmp_path, "configured.csv")
    assert run(*argv, "--config", str(conf)) == 0
    cached, argv = hit_ratio_args(tmp_path, "cached.csv")
    assert run(*argv, "--browser-cache") == 0
    assert configured.read_bytes() == plain.read_bytes()
    assert cached.read_bytes() != plain.read_bytes()
    capsys.readouterr()


# -- sim subcommands ---------------------------------------------------------------


def hit_ratio_args(tmp_path, out_name="hr.csv"):
    out = tmp_path / out_name
    return out, (
        "sim", "hit-ratio", "--n-popular", "50,200", "--universe", "400",
        "--clients", "8", "--queries", "20", "--hours", "3", "--seed", "7",
        "--out", str(out),
    )


def test_hit_ratio_row_shape(tmp_path, capsys):
    out, argv = hit_ratio_args(tmp_path)
    assert run(*argv) == 0
    rows = read_rows(out)
    assert rows[0][0] == "n_popular"
    assert len(rows) == 1 + 2 * 3  # header + sizes x hours
    capsys.readouterr()


def test_hit_ratio_idempotent(tmp_path, capsys):
    out_a, argv_a = hit_ratio_args(tmp_path, "a.csv")
    out_b, argv_b = hit_ratio_args(tmp_path, "b.csv")
    assert run(*argv_a) == 0
    assert run(*argv_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_exposure_fit_anchor(tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = run(
        "sim", "exposure", "--miss-fraction", "0.056", "--vote-fraction", "0.157",
        "--fit-exposure", "0.205", "--collusion", "0,1", "--out", str(out),
    )
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["mode", "collusion", "exposure"]
    full = {r[0]: float(r[2]) for r in rows[1:] if r[1] == "1.000000"}
    assert full["dohot"] == pytest.approx(0.205, abs=1e-9)
    assert full["doh"] == pytest.approx(0.205, abs=1e-9)  # same at c=1
    capsys.readouterr()


def test_exposure_modes_flag_takes_a_list(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run("sim", "exposure", "--modes", "doh,plain", "--out", str(out)) == 0
    assert {row[0] for row in read_rows(out)[1:]} == {"doh", "plain"}
    capsys.readouterr()


def test_bandwidth_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = run(
        "sim", "bandwidth", "--universe", "300", "--lb-fraction", "0.4",
        "--hours", "2", "--clients", "2", "--n-popular", "300", "--out", str(out),
    )
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1 + 2
    assert "snapshot_bytes" in rows[0]
    capsys.readouterr()


def test_latency_from_hit_ratio_csv(tmp_path, capsys):
    hr_out, argv = hit_ratio_args(tmp_path)
    assert run(*argv) == 0
    out = tmp_path / "l.csv"
    rc = run(
        "sim", "latency", "--mode", "doh", "--from-csv", str(hr_out),
        "--out", str(out), "--seed", "1",
    )
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1 + 3  # hours of the largest list size
    capsys.readouterr()


# -- list inspect -----------------------------------------------------------------


@pytest.fixture
def snapshot_files(tmp_path):
    universe = SyntheticUniverse(
        UniverseConfig(60, seed=1, lb_fraction=0.2, cname_fraction=0.1)
    )
    plist = build_list(universe.record_defs(40), generation=5)
    framed = tmp_path / "framed.bin"
    raw = tmp_path / "raw.bin"
    framed.write_bytes(encode_list_snapshot(plist))
    raw.write_bytes(serialize(plist, compress=True))
    return framed, raw


def test_inspect_framed_snapshot(snapshot_files, tmp_path, capsys):
    framed, _ = snapshot_files
    report = tmp_path / "report.txt"
    assert run("list", "inspect", str(framed), "--out", str(report)) == 0
    text = report.read_text()
    assert text.startswith("generation 5: 40 records")
    assert "pool[" in text
    capsys.readouterr()


def test_inspect_raw_list(snapshot_files, capsys):
    _, raw = snapshot_files
    assert run("list", "inspect", str(raw), "--max-nodes", "5") == 0
    out = capsys.readouterr().out
    assert "more nodes" in out
    assert "pool:" in out


def test_inspect_rejects_garbage(tmp_path, capsys):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"\x00" * 32)
    assert run("list", "inspect", str(bogus)) == 2
    capsys.readouterr()


# -- plotdata ----------------------------------------------------------------------


def test_plotdata_batch(tmp_path, capsys):
    out = tmp_path / "plots"
    rc = run(
        "plotdata", "--universe", "600", "--clients", "10", "--queries", "15",
        "--hours", "3", "--n-popular", "50,150", "--seed", "4", "--out", str(out),
    )
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "hit_ratio.csv",
        "voter_participation.csv",
        "exposure.csv",
        "latency.csv",
        "bandwidth.csv",
        "listsize.csv",
        "manifest.json",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_values"] == [50, 150]
    assert "code_version" in manifest
    assert 0.0 <= manifest["steady_hit"] <= 1.0
    capsys.readouterr()


# -- daemons ------------------------------------------------------------------------


def readline_with_timeout(proc, seconds=30.0):
    ready, _, _ = select.select([proc.stdout], [], [], seconds)
    assert ready, "daemon produced no output in time"
    return proc.stdout.readline()


def cli(*argv, **popen_kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "lluad.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **popen_kwargs,
    )


def keygen_pair(seed):
    out = subprocess.run(
        [sys.executable, "-m", "lluad.cli", "keygen", "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    priv, pub = out.stdout.split()
    return priv, pub


def test_daemons_answer_dns(tmp_path):
    server_priv, server_pub = keygen_pair(100)
    pubs = [keygen_pair(i) for i in range(3)]
    registry = tmp_path / "registry.txt"
    registry.write_text(
        "".join(
            f"c{i} tok{i} {pub} {1 if i < 2 else 0}\n"
            for i, (_, pub) in enumerate(pubs)
        )
    )

    server = cli(
        "server", "--registry", str(registry), "--key", server_priv,
        "--universe", "200", "--prepopulate", "--n-popular", "150",
        "--port", "0", "--quota", "4", "--n-shuffle", "2",
    )
    client = None
    try:
        banner = readline_with_timeout(server)
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, banner

        client = cli(
            "client", "--id", "c2", "--token", "tok2",
            "--server", f"{match.group(1)}:{match.group(2)}",
            "--server-pub", server_pub, "--registry", str(registry),
            "--listen", "127.0.0.1:0",
        )
        banner = readline_with_timeout(client)
        stub = re.search(r"resolving on ([\d.]+):(\d+)", banner)
        assert stub, banner

        # the prepopulated list holds the whole 150-record head, so any
        # head key must resolve locally
        universe = SyntheticUniverse(
            UniverseConfig(200, seed=0, lb_fraction=0.02, cname_fraction=0.05)
        )
        query = build_query(77, universe.keys[0])
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(10)
        try:
            sock.sendto(query, (stub.group(1), int(stub.group(2))))
            reply, _ = sock.recvfrom(4096)
        finally:
            sock.close()
        parsed = parse_response(reply)
        assert parsed.txid == 77
        assert parsed.answers
    finally:
        for proc in (client, server):
            if proc is not None:
                proc.send_signal(signal.SIGINT)
        for proc in (client, server):
            if proc is not None:
                assert proc.wait(timeout=15) == 130
                proc.stdout.close()
