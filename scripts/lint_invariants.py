#!/usr/bin/env python3
"""Project-invariant lint: rules clang-tidy cannot express (ISSUE 8).

Runs over src/ (and any extra paths given) and enforces:

  raw-sync-primitive
      No raw std::mutex / std::condition_variable / std::lock_guard /
      std::unique_lock / std::scoped_lock / std::shared_mutex outside the
      two files allowed to use them: util/mutex.h (the annotated wrapper)
      and util/lock_rank.cc (the validator's own registry lock, which must
      not be a ranked Mutex or it would recurse into itself).

  unranked-mutex
      Every Mutex constructed in src/ names itself and declares its rank:
      `Mutex mu_{LockRank::kX, "component.mu"}`. An unranked Mutex is
      invisible to the runtime lock-rank validator's DAG (it still gets
      cycle detection, but no declared order and no I/O policy).

  unguarded-member-after-mutex
      Every mutable data member in the contiguous declaration block
      following a Mutex member carries GUARDED_BY(...). Exempt: const /
      constexpr / static members, function declarations, Mutex / CondVar /
      std::atomic members, and members with a trailing or directly
      preceding `//` rationale (e.g. "Set once at construction") or
      guarded-elsewhere note.
      The block ends at a blank line, an access specifier, or `};` — that
      is the "adjacent" scope; members declared before the Mutex or in a
      later block are the thread-safety analysis' problem, not this lint's.

  unexplained-void-cast
      `(void)expr` discards a Status (or other result). Allowed only with
      a rationale: a trailing `//` comment on the same line, or a comment
      line directly above the statement.

  empty-io-rationale
      lock_rank::IoAllowedSection must be constructed with a non-empty
      string-literal rationale — the escape hatch documents *why* I/O
      under that lock is the design, or it teaches nothing.

  stats-ticker-outside-registry
      db/statistics.h declares no std::atomic data member (nor a Ticker /
      LevelTicker one) outside the LSMLAB_STATISTICS_TICKERS list.
      Statistics::Reset() and the ToString() dump are generated from that
      list, so a counter declared beside it would silently be neither
      reset nor dumped.

  point-lookup-walk-copy
      Across src/db/, outside comments, each of `NextFileContaining(`,
      `KeyDefinitelyAbsent(`, `LookupCachedBlock(` and
      `merge_operator->Merge(` appears on at most one line. Get and
      MultiGet share one point-lookup walk (ShardEngine::StepLookup);
      point lookups and iterators share one merge-chain resolver
      (ShardEngine::ResolveMerge). A second call site is a copy of one of
      them, and copies drift.

  vlog-append-copy
      Outside comments, a value log's `Append(` (a receiver named like
      `vlog`) appears on one line of db/shard_engine.cc, the write-group
      leader's separation, and one line of compaction/compaction_stream.cc,
      the compaction stream's relocation, and nowhere else. A value
      appended anywhere else can land in a log that no memtable or table
      file names, which the engine may then delete under it, or behind a
      pointer that a concurrent write does not shadow.

  wal-append-copy
      Outside comments, a WAL writer's `AddRecord(` appears on one line of
      db/shard_engine*.cc, inside ShardEngine::LogWriteGroup, the log half
      of a commit. Single-shard groups and cross-shard slices both log
      through it, so every WAL record gets the same room-making, sequence
      reservation, value separation and sync, and a second append site is
      a second commit protocol.

  table-iterator-outside-run-iterator
      Across src/db/ and src/compaction/, outside comments, a table
      reader's `NewIterator(` (a receiver named like `reader` or `table`)
      appears only in db/internal_iterators.cc, the run iterator, and in
      db/shard_engine_checkpoint.cc, whose scrub reads every file whole.
      Scans and compactions merge one run child per sorted run, which opens
      one file at a time; a per-file table iterator beside it brings back
      the cost of one open file and one block per file.

  table-builder-outside-output-writer
      Across src/db/ and src/compaction/, outside comments, a TableBuilder
      is constructed on one line only and `kRateLimitChunk` is defined
      once. Flush, WAL recovery and compaction run one compaction stream
      into one output writer (compaction/compaction_stream.cc), which owns
      a table file's whole lifecycle: pin, create, build under the rate
      limiter, cut, finish, sync, close, and on error abandon, remove and
      unpin. A second builder site is a second copy of that lifecycle, and
      only one copy applies the merge's drop rules.

  raw-file-io
      Outside comments, `::read(`, `::pread(`, `::write(`, `::pwrite(`,
      `::fsync(`, `::fdatasync(` and `syscall(` appear only in
      io/posix_env.cc, and the CRC intrinsics (`_mm_crc32_`, `__crc32c`)
      only in util/crc32c.cc. Every byte the engine reads or writes goes
      through an Env file, so CountingEnv, FaultInjectionEnv and the POSIX
      write buffer all see it, and every checksum goes through
      crc32c::Extend, which picks the hardware or table path once.

  bloom-probe-copy
      Outside comments, the Bloom probe loop's pieces appear only in
      filter/bloom_kernel.h: the double-hash step (a hash rotated right by
      17 bits, `(h >> 17) | (h << 15)`, assigned to a variable), a probe
      taken modulo a 512-bit cache line, and a line picked from a hash's
      high 32 bits (`(h >> 32) % lines`). The SST Bloom filters, the range
      filters' bit arrays and the memtable filter all call the kernel's
      BloomProbes / BlockedBloomProbes, so one probe sequence sets and
      tests every bit; a second copy could drift and turn into false
      negatives.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
Usage: scripts/lint_invariants.py [path ...]   (default: src/)
"""

import os
import re
import sys

# Files allowed to touch raw standard-library synchronization primitives.
RAW_SYNC_ALLOWLIST = {
    os.path.join("util", "mutex.h"),
    os.path.join("util", "lock_rank.cc"),
}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b")

# A Mutex member/local declaration: optional mutable, the type, a name,
# optional ordering annotation, then its initializer (or none).
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*"
    r"(?:ACQUIRED_(?:BEFORE|AFTER)\([^)]*\)\s*)?(\{|;|$)")

MEMBER_EXEMPT_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\b|constexpr\b|const\b|"
    r"(?:[\w:<>,\s*&]*\bconst\s+\w+)|Mutex\b|CondVar\b|std::atomic\b|"
    r"using\b|enum\b|struct\b|class\b|friend\b|typedef\b)")

VOID_CAST_RE = re.compile(r"^\s*\(void\)")

STATS_HEADER = os.path.join("db", "statistics.h")
# A declaration whose type (an atomic, an array of atomics, or one of the
# registry's aliases) starts the line; `&`, `*` or `(` on the line mark a
# reference, pointer or function instead of a data member.
STATS_ATOMIC_DECL_RE = re.compile(
    r"^\s*(?:(?:mutable|static|inline)\s+)*"
    r"(?:std::atomic\s*<|std::array\s*<\s*std::atomic\s*<|"
    r"(?:Level)?Ticker\s+\w)")
IO_SECTION_RE = re.compile(r"IoAllowedSection\s+\w+\s*[({]\s*(.*)")

# The steps of the point-lookup walk and the merge operator call: each has
# one home in src/db/.
WALK_DIR = "db" + os.sep
WALK_TOKENS = ("NextFileContaining(", "KeyDefinitelyAbsent(",
               "LookupCachedBlock(", "merge_operator->Merge(")

# A value log's Append, and the one line each of its two homes may hold.
VLOG_APPEND_RE = re.compile(r"\bvlog\w*\s*(?:->|\.)\s*Append\(")
VLOG_APPEND_HOMES = {
    os.path.join("db", "shard_engine.cc"),
    os.path.join("compaction", "compaction_stream.cc"),
}

# A WAL append in the engine, and the one function that may hold it.
WAL_APPEND_RE = re.compile(r"\b\w+\s*(?:->|\.)\s*AddRecord\(")
WAL_APPEND_FILE_RE = re.compile(r"^db[\\/]shard_engine\w*\.cc$")
WAL_APPEND_HOME = "LogWriteGroup"
# The start of an out-of-line member function definition.
ENGINE_FUNCTION_RE = re.compile(r"^[A-Za-z].*\bShardEngine::(\w+)\(")

# A table reader's iterator; the engine opens one only inside the run
# iterator (and the whole-file scrub).
TABLE_ITER_DIRS = ("db" + os.sep, "compaction" + os.sep)
TABLE_ITER_RE = re.compile(
    r"\b\w*(?:reader|table)\w*\s*(?:->|\.)\s*NewIterator\(")
TABLE_ITER_ALLOWLIST = {
    os.path.join("db", "internal_iterators.cc"),
    os.path.join("db", "shard_engine_checkpoint.cc"),
}

# A table builder's construction and the rate limiter's charge chunk: both
# live in the one output writer.
OUTPUT_WRITER_RES = (
    ("TableBuilder construction",
     re.compile(r"\bTableBuilder\s*>\s*\(|\bnew\s+TableBuilder\b|"
                r"\bTableBuilder\s+\w+\s*[({]")),
    ("kRateLimitChunk definition", re.compile(r"\bkRateLimitChunk\s*=(?!=)")),
)

# Raw file syscalls and CRC intrinsics, each with its one home.
RAW_FILE_IO_RULES = (
    (re.compile(r"::(?:read|pread|write|pwrite|fsync|fdatasync)\(|"
                r"\bsyscall\("),
     os.path.join("io", "posix_env.cc"),
     "raw read/write/sync syscall outside io/posix_env.cc — go through an "
     "Env file so the decorators and the write buffer see it"),
    (re.compile(r"\b(?:_mm_crc32_\w*|__crc32c\w*)\b"),
     os.path.join("util", "crc32c.cc"),
     "CRC intrinsic outside util/crc32c.cc — call crc32c::Extend"),
)

# The Bloom probe loop's home, and the pieces a copy of it would carry.
BLOOM_KERNEL = os.path.join("filter", "bloom_kernel.h")
BLOOM_PROBE_RES = (
    re.compile(r"=\s*\(\s*(\w+)\s*>>\s*17\s*\)\s*\|\s*"
               r"\(\s*\1\s*<<\s*15\s*\)"),
    re.compile(r"%\s*(?:\w*LineBits\b|512\b)"),
    re.compile(r">>\s*32\s*\)\s*%"),
)


def is_comment(line):
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def lint_file(path, rel, findings, walk_sites, writer_sites,
              vlog_append_sites, wal_append_sites):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    in_block_comment = False
    mutex_block_guard = None  # Name of the Mutex whose adjacency block we're in.
    in_continuation = False  # Inside a multi-line declaration's tail.
    function = None  # The ShardEngine member function being defined.
    for i, line in enumerate(lines):
        lineno = i + 1
        stripped = line.strip()
        if in_continuation:
            if stripped.endswith(";"):
                in_continuation = False
            continue

        # Cheap block-comment tracking so commented-out code doesn't trip rules.
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        code = line.split("//", 1)[0]

        # --- raw-sync-primitive ------------------------------------------
        if rel not in RAW_SYNC_ALLOWLIST:
            m = RAW_SYNC_RE.search(code)
            if m:
                findings.append(
                    (rel, lineno, "raw-sync-primitive",
                     f"std::{m.group(1)} outside util/mutex.h — use the "
                     "ranked Mutex/CondVar wrappers"))

        # --- unranked-mutex + adjacency-block opening ---------------------
        m = MUTEX_DECL_RE.match(code)
        if m:
            name, tail = m.group(1), m.group(2)
            init = code[m.end(2) - 1:] if tail == "{" else ""
            if tail != "{" and i + 1 < len(lines):
                nxt = lines[i + 1].strip()
                if nxt.startswith("{"):
                    init = nxt
            if "LockRank::" not in init and "LockRank::" not in code:
                findings.append(
                    (rel, lineno, "unranked-mutex",
                     f"Mutex {name} constructed without a "
                     "{LockRank::k..., \"name\"} initializer"))
            if rel.endswith(".h"):
                mutex_block_guard = name
            if not stripped.endswith(";"):
                in_continuation = True  # Initializer spills onto more lines.
            continue

        # --- unguarded-member-after-mutex ---------------------------------
        if mutex_block_guard is not None:
            if (not stripped or stripped in ("};", "}")
                    or stripped.endswith(":")  # access specifier / label
                    or stripped.startswith("#")):
                mutex_block_guard = None
            elif is_comment(stripped):
                pass  # Doc comment inside the block: keep scanning.
            elif "(" in code and "=" not in code.split("(", 1)[0] \
                    and "{" not in code.split("(", 1)[0] and "GUARDED_BY" not in code:
                pass  # Function declaration, not a data member.
            elif MEMBER_EXEMPT_RE.match(code):
                pass
            elif "GUARDED_BY" in line:
                pass
            elif "//" in line or (i > 0 and is_comment(lines[i - 1])):
                pass  # Trailing or preceding rationale comment.
            elif code.rstrip().endswith(";"):
                findings.append(
                    (rel, lineno, "unguarded-member-after-mutex",
                     f"member adjacent to Mutex {mutex_block_guard} lacks "
                     "GUARDED_BY (or a trailing rationale comment)"))

        # --- stats-ticker-outside-registry ---------------------------------
        if (rel == STATS_HEADER and STATS_ATOMIC_DECL_RE.match(code)
                and not any(c in code for c in "&*(")):
            findings.append(
                (rel, lineno, "stats-ticker-outside-registry",
                 "atomic member declared outside LSMLAB_STATISTICS_TICKERS "
                 "— Reset() and ToString() would skip it"))

        # --- point-lookup-walk-copy (reported in main) ---------------------
        if rel.startswith(WALK_DIR):
            for token in WALK_TOKENS:
                if token in code:
                    walk_sites.setdefault(token, []).append((rel, lineno))

        # --- vlog-append-copy (reported in main) ---------------------------
        if not is_comment(stripped) and VLOG_APPEND_RE.search(code):
            vlog_append_sites.setdefault(rel, []).append(lineno)

        # --- wal-append-copy (reported in main) ----------------------------
        if WAL_APPEND_FILE_RE.match(rel):
            m = ENGINE_FUNCTION_RE.match(code)
            if m:
                function = m.group(1)
            if not is_comment(stripped) and WAL_APPEND_RE.search(code):
                wal_append_sites.append((rel, lineno, function))

        # --- table-iterator-outside-run-iterator ---------------------------
        if (rel.startswith(TABLE_ITER_DIRS)
                and rel not in TABLE_ITER_ALLOWLIST
                and not is_comment(stripped) and TABLE_ITER_RE.search(code)):
            findings.append(
                (rel, lineno, "table-iterator-outside-run-iterator",
                 "table iterator opened outside the run iterator — merge "
                 "one NewRunIterator child per sorted run instead"))

        # --- table-builder-outside-output-writer (reported in main) -------
        if rel.startswith(TABLE_ITER_DIRS) and not is_comment(stripped):
            for what, pattern in OUTPUT_WRITER_RES:
                if pattern.search(code):
                    writer_sites.setdefault(what, []).append((rel, lineno))

        # --- raw-file-io --------------------------------------------------
        if not is_comment(stripped):
            for pattern, home, msg in RAW_FILE_IO_RULES:
                if rel != home and pattern.search(code):
                    findings.append((rel, lineno, "raw-file-io", msg))

        # --- bloom-probe-copy ----------------------------------------------
        if (rel != BLOOM_KERNEL and not is_comment(stripped)
                and any(p.search(code) for p in BLOOM_PROBE_RES)):
            findings.append(
                (rel, lineno, "bloom-probe-copy",
                 "Bloom probe loop outside filter/bloom_kernel.h — call "
                 "BloomProbes / BlockedBloomProbes"))

        # --- unexplained-void-cast ----------------------------------------
        if VOID_CAST_RE.match(code):
            has_rationale = "//" in line
            if not has_rationale and i > 0:
                has_rationale = is_comment(lines[i - 1])
            if not has_rationale:
                findings.append(
                    (rel, lineno, "unexplained-void-cast",
                     "(void) discards a result without a rationale comment "
                     "on this line or the line above"))

        # --- empty-io-rationale -------------------------------------------
        m = IO_SECTION_RE.search(code)
        if m:
            rest = m.group(1).strip()
            # The rationale may start on the next line; only flag clearly
            # empty ones: `IoAllowedSection io("");` or `...()`.
            if rest.startswith('""') or rest.startswith(")"):
                findings.append(
                    (rel, lineno, "empty-io-rationale",
                     "IoAllowedSection needs a non-empty rationale string"))


def main(argv):
    roots = argv[1:] or ["src"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []
    files = []
    for root in roots:
        root = os.path.join(repo, root) if not os.path.isabs(root) else root
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
    src_root = os.path.join(repo, "src")
    walk_sites = {}
    writer_sites = {}
    vlog_append_sites = {}
    wal_append_sites = []
    for path in sorted(files):
        rel = os.path.relpath(path, src_root)
        lint_file(path, rel, findings, walk_sites, writer_sites,
                  vlog_append_sites, wal_append_sites)
    for token, sites in sorted(walk_sites.items()):
        if len(sites) > 1:
            for rel, lineno in sites:
                findings.append(
                    (rel, lineno, "point-lookup-walk-copy",
                     f"{token} appears on {len(sites)} lines in src/db/ — "
                     "the point-lookup walk and the merge-chain resolver "
                     "each have one home"))
    for rel, linenos in sorted(vlog_append_sites.items()):
        if rel in VLOG_APPEND_HOMES and len(linenos) == 1:
            continue
        for lineno in linenos:
            findings.append(
                (rel, lineno, "vlog-append-copy",
                 "value-log Append outside the leader's separation and the "
                 "compaction stream's relocation (one line each)"))
    for rel, lineno, function in wal_append_sites:
        if len(wal_append_sites) > 1 or function != WAL_APPEND_HOME:
            findings.append(
                (rel, lineno, "wal-append-copy",
                 f"WAL AddRecord on {len(wal_append_sites)} line(s) of "
                 "db/shard_engine*.cc, here in "
                 f"{function or 'no member function'} — every WAL record "
                 f"is appended by the one log half, {WAL_APPEND_HOME}"))
    for what, sites in sorted(writer_sites.items()):
        if len(sites) > 1:
            for rel, lineno in sites:
                findings.append(
                    (rel, lineno, "table-builder-outside-output-writer",
                     f"{what} on {len(sites)} lines in src/db/ and "
                     "src/compaction/ — table files are written by the one "
                     "OutputWriter"))

    for rel, lineno, rule, msg in findings:
        print(f"src/{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"\n{len(findings)} finding(s) across {len(files)} files")
        return 1
    print(f"lint_invariants: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
