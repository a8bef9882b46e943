"""Run the server and client daemons as real processes and resolve a name.

The server prepopulates its list from a synthetic record universe; the
client bootstraps over the framed TCP protocol, serves plain DNS on a
local UDP socket, and answers the query from its own list without a
single upstream packet. Both daemons shut down cleanly on SIGINT.
"""

import re
import select
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

from lluad.dnsmsg import build_query, parse_response
from lluad.traces import SyntheticUniverse, UniverseConfig

UNIVERSE = 300


def keygen(seed: int) -> tuple[str, str]:
    out = subprocess.run(
        [sys.executable, "-m", "lluad.cli", "keygen", "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    priv, pub = out.stdout.split()
    return priv, pub


def spawn(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "lluad.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def banner(proc: subprocess.Popen, pattern: str, timeout: float = 30.0):
    # daemons print one line once they are serving; don't block forever
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError("daemon printed nothing")
    line = proc.stdout.readline()
    print(f"  {line.strip()}")
    match = re.search(pattern, line)
    if match is None:
        raise RuntimeError(f"unexpected banner: {line!r}")
    return match


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="lluad-demo-"))
    server_priv, server_pub = keygen(100)
    client_keys = [keygen(i) for i in range(2)]
    registry = workdir / "registry.txt"
    registry.write_text(
        "".join(f"c{i} token{i} {pub} 1\n" for i, (_, pub) in enumerate(client_keys))
    )
    print(f"registry with {len(client_keys)} clients at {registry}")

    print("\nstarting server:")
    server = spawn(
        "server", "--registry", str(registry), "--key", server_priv,
        "--universe", str(UNIVERSE), "--prepopulate", "--n-popular", "200",
        "--port", "0", "--quota", "4", "--n-shuffle", "1",
    )
    client = None
    try:
        match = banner(server, r"listening on ([\d.]+):(\d+)")

        print("starting client:")
        client = spawn(
            "client", "--id", "c0", "--token", "token0",
            "--server", f"{match.group(1)}:{match.group(2)}",
            "--server-pub", server_pub, "--registry", str(registry),
            "--shuffler-key", client_keys[0][0], "--listen", "127.0.0.1:0",
        )
        stub = banner(client, r"resolving on ([\d.]+):(\d+)")

        # any head-of-universe name sits on the prepopulated list
        universe = SyntheticUniverse(
            UniverseConfig(UNIVERSE, seed=0, lb_fraction=0.02, cname_fraction=0.05)
        )
        target = universe.keys[0]
        query = build_query(77, target)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(10)
        try:
            sock.sendto(query, (stub.group(1), int(stub.group(2))))
            reply, _ = sock.recvfrom(4096)
        finally:
            sock.close()
        parsed = parse_response(reply)
        answers = ", ".join(
            socket.inet_ntop(
                socket.AF_INET if len(a.data) == 4 else socket.AF_INET6, a.data
            )
            for a in parsed.answers
            if len(a.data) in (4, 16)
        )
        print(f"\nquery {target.name} answered locally: txid={parsed.txid} -> {answers}")
    finally:
        for proc in (client, server):
            if proc is not None:
                proc.send_signal(signal.SIGINT)
        for proc in (client, server):
            if proc is not None:
                code = proc.wait(timeout=15)
                proc.stdout.close()
                print(f"daemon exited with SIGINT status {code}")


if __name__ == "__main__":
    main()
