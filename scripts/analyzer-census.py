#!/usr/bin/env python3
"""Seeded-violation census for the esr-lint analyzers.

Each row seeds one violation, alone, into a fresh copy of the tree, then
records which analyzers flag it (`go run ./cmd/esr-lint -json ./...`)
and which tier-1 tests fail (`go test -count=1 -timeout 150s ./...`).
TestVettoolClean runs the analyzers itself, so it is reported in its own
column rather than as a behavioural test.

Usage (from the repo root; copies go under WORKDIR, default a temp dir):

    python3 scripts/analyzer-census.py [-o results/analyzers.tsv] [-w WORKDIR] [ids...]

A full run takes a few minutes: LS2 hangs internal/tso until the
150 s test timeout.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

# (id, file, old, new, what). `old` must occur exactly once in `file`.
SEEDS = [
    ("LS1", "internal/wal/wal.go",
     "\t\tif err := apply(); err != nil {\n\t\t\tl.mu.Unlock()\n\t\t\treturn err\n",
     "\t\tif err := apply(); err != nil {\n\t\t\treturn err\n",
     "wal.LogCreate: drop l.mu.Unlock() when apply fails"),
    ("LS2", "internal/tso/read.go",
     "\t\t\tif err := e.waitForResolve(o); err != nil {\n\t\t\t\to.Unlock()\n\t\t\t\treturn 0, e.abortNow(st, metrics.AbortWaitTimeout, err)\n\t\t\t}\n\t\t\tcontinue\n\n\t\tdefault:",
     "\t\t\tif err := e.waitForResolve(o); err != nil {\n\t\t\t\treturn 0, e.abortNow(st, metrics.AbortWaitTimeout, err)\n\t\t\t}\n\t\t\tcontinue\n\n\t\tdefault:",
     "tso.readUpdate: drop o.Unlock() on the wait-timeout path"),
    ("LS3", "internal/tso/write.go",
     "\tif err := o.BeginWrite(st.id, st.ts, newValue); err != nil {\n\t\to.Unlock()\n",
     "\tif err := o.BeginWrite(st.id, st.ts, newValue); err != nil {\n",
     "tso.write: drop o.Unlock() when BeginWrite fails"),
    ("LS4", "internal/server/server.go",
     "\tif s.closed {\n\t\ts.mu.Unlock()\n\t\treturn errors.New(\"server: already closed\")",
     "\tif s.closed {\n\t\treturn errors.New(\"server: already closed\")",
     "server.Serve: drop s.mu.Unlock() on the closed path"),
    ("TC1", "internal/tso/read.go",
     "\t\t\to.RecordRead(st.ts, false)\n\t\t\te.trace(Event{Kind: EvRead, Txn: st.id, TxnKind: st.kind, TS: st.ts,\n\t\t\t\tObject: o.ID(), Value: v, Version: o.WriteTS(), Limit: o.OIL()})\n",
     "\t\t\to.RecordRead(st.ts, false)\n",
     "tso.readUpdate: drop the EvRead emit on the own-pending-write read"),
    ("TC2", "internal/tso/engine.go",
     "\te.trace(Event{Kind: EvCommit, Txn: st.id, TxnKind: st.kind, TS: st.ts,\n\t\tInconsistency: total, Limit: st.rootLimit})\n",
     "\tgo e.trace(Event{Kind: EvCommit, Txn: st.id, TxnKind: st.kind, TS: st.ts,\n\t\tInconsistency: total, Limit: st.rootLimit})\n",
     "tso.Commit: emit EvCommit from a go statement"),
    ("EP1", "internal/wal/snapshot.go",
     "\tif err := l.fs.SyncDir(); err != nil {\n\t\treturn err\n\t}\n",
     "\t_ = l.fs.SyncDir()\n",
     "wal.writeSnapshot: discard SyncDir's error after the rename"),
    ("EP2", "internal/tso/engine.go",
     "\t\tdurErr = durAck.Wait()\n",
     "\t\t_ = durAck.Wait()\n",
     "tso.Commit: discard the durability ack's error"),
    ("EP3", "internal/wal/snapshot.go",
     "\tif err := f.Sync(); err != nil {\n\t\tf.Close()\n\t\treturn err\n\t}\n",
     "\t_ = f.Sync()\n",
     "wal.writeSnapshot: discard the snapshot image's Sync error"),
    ("EC1", "internal/storage/object.go",
     "\tdelete(o.readers, txn)\n}\n",
     "\tdelete(o.readers, txn)\n\tif len(o.readers) == 0 {\n\t\to.maxQueryReadTS = 0\n\t}\n}\n",
     "storage.Object.RemoveReader: reset maxQueryReadTS when the last reader leaves"),
    ("EC2", "internal/tso/write.go",
     "\t\td, _ := o.ExportDistance(newValue)\n",
     "\t\td, _ := o.ExportDistance(newValue)\n\t\td = d * 9 / 10\n",
     "tso.write: shave the export distance (d = d * 9 / 10)"),
    ("GL1", "internal/replica/feed.go",
     "\tgo fd.run()\n\treturn fd, nil\n",
     "\tgo fd.run()\n\tgo func() {\n\t\tt := time.NewTicker(time.Second)\n\t\tfor {\n\t\t\tselect {\n\t\t\tcase <-t.C:\n\t\t\t}\n\t\t}\n\t}()\n\treturn fd, nil\n",
     "replica.StartFeed: spawn a for-select heartbeat with no exit"),
    ("WE1", "internal/wire/pipeline.go",
     "\tcase MsgSync, MsgStats, MsgTagged, MsgBatch, MsgReplicaHello:\n",
     "\tcase MsgSync, MsgTagged, MsgBatch, MsgReplicaHello:\n",
     "wire.Batchable: drop MsgStats from the explicit non-batchable case"),
]

# Rows with nothing to seed: recorded so the census shows why.
UNSEEDABLE = [
    ("AM", "none: no raw sync/atomic function call exists to seed against; every "
     "counter is a typed atomic, so a mixed access is a compile error"),
]


def run(cmd, cwd, timeout):
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return p.returncode, p.stdout + p.stderr


def copy_tree(root, dst):
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=root,
                           capture_output=True, text=True, check=True).stdout.split("\n")
    for rel in files:
        src = os.path.join(root, rel)
        if not rel or not os.path.isfile(src):
            continue
        os.makedirs(os.path.dirname(os.path.join(dst, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dst, rel))


def seed_line(text, old, new):
    """Line of the first character the seed changes."""
    at = text.index(old) + len(os.path.commonprefix([old, new]))
    return text[:at].count("\n") + 1


def census_row(root, work, seed):
    sid, rel, old, new, what = seed
    path = os.path.join(root, rel)
    text = open(path).read()
    if text.count(old) != 1:
        raise SystemExit(f"{sid}: seed text occurs {text.count(old)} times in {rel}")
    sha = subprocess.run(["git", "hash-object", rel], cwd=root, capture_output=True,
                         text=True, check=True).stdout.strip()[:12]
    line = seed_line(text, old, new)
    dst = os.path.join(work, sid)
    shutil.rmtree(dst, ignore_errors=True)
    copy_tree(root, dst)
    with open(os.path.join(dst, rel), "w") as f:
        f.write(text.replace(old, new))

    _, out = run(["go", "run", "./cmd/esr-lint", "-json", "./..."], dst, 600)
    try:
        report, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
    except ValueError:
        raise SystemExit(f"{sid}: esr-lint did not run:\n{out}")
    lint = sorted({d["analyzer"] for d in report["diagnostics"]})

    try:
        _, out = run(["go", "test", "-count=1", "-timeout", "150s", "./..."], dst, 400)
    except subprocess.TimeoutExpired:
        out = "FAIL\ttimeout"
    failed = sorted(set(re.findall(r"^\s*--- FAIL: (Test\w+)", out, re.M)))
    hung = sorted(p.split("/")[-1] for p, secs in
                  re.findall(r"^FAIL\s+(\S+)\s+([\d.]+)s", out, re.M) if float(secs) >= 150)
    vettool = "TestVettoolClean" in failed
    tests = [t for t in failed if t != "TestVettoolClean"] + [f"{p}:timeout" for p in hung]
    shutil.rmtree(dst, ignore_errors=True)
    return [sid, sha, f"{rel}:{line}", what, ",".join(lint) or "none",
            "fail" if vettool else "pass", ";".join(tests) or "none"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-o", default="results/analyzers.tsv")
    ap.add_argument("-w", default=None)
    ap.add_argument("ids", nargs="*")
    args = ap.parse_args()
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    work = args.w or tempfile.mkdtemp(prefix="census-")
    rows = [["id", "file_sha", "file:line", "seeded violation", "lint", "TestVettoolClean",
             "tier-1 tests failing"]]
    for seed in SEEDS:
        if args.ids and seed[0] not in args.ids:
            continue
        row = census_row(root, work, seed)
        print("\t".join(row), file=sys.stderr, flush=True)
        rows.append(row)
    for sid, what in UNSEEDABLE:
        if not args.ids or sid in args.ids:
            rows.append([sid, "-", "-", what, "none (analyzer deleted)", "-", "none"])
    with open(os.path.join(root, args.o), "w") as f:
        for row in rows:
            f.write("\t".join(row) + "\n")


if __name__ == "__main__":
    main()
