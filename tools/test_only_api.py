#!/usr/bin/env python3
"""Guard against public API that only tests reach.

Lists every public function declared in a src/ header whose name appears in
no file of src/, tools/, examples/ or bench/ other than as its own
declaration or definition, while some file under tests/ does use it.  Inside
its own module (the header and the .cpp of the same stem) a declaration or
definition head does not count as a use; anywhere else any mention does.
Such a function is either dead weight or a test oracle that belongs in
tests/.  Names are matched as whole words with comments and string literals
stripped, so this is a name match, not a call graph.

Exits 1 when a flagged name is on neither list below.  ACCESSORS stay
public so tests can observe state no production caller needs to read.
DEFERRED are test-only functions whose fate is still open (see ROADMAP.md,
"Delete the API that only tests reach"); take a name off when it goes.

Usage: tools/test_only_api.py [repo-root]
"""
import pathlib
import re
import sys

ACCESSORS = set("""
    active_count advisories auth_queries breaker_state bucket_count
    bucket_lo cache_evictions cache_misses cache_size category_count
    details_truncated domain_count drifts floods forwarded granted
    has_header has_tld http_records http_responses_sent index_size
    intern_table is_registered latest limited max_payload_bytes
    next_deadline nxdomains_served open_until ops_seen pages_fired
    planned_total resolves_now root_queries samples_dropped
    scanner_ip_count sensor_volume series_count spans_open spikes status_at
    tld_queries total_faults traces_started wire_length
    with_history_fraction zone_budget_entries
""".split())
DEFERRED = set("""
    attach_pressure feed_pressure major_of tcp_query
    add_host add_outage advance_days default_threads detach expected_series
    exponential fork generate_idn_homos set_cache_capacity set_clock
    set_threshold to_json_line
""".split())

SOURCE_EXT = {".hpp", ".h", ".cpp", ".cc"}
NOT_FUNCTIONS = {"operator", "decltype", "alignas", "sizeof", "noexcept",
                 "static_assert", "requires", "void", "bool", "int", "char",
                 "double", "float", "auto", "return", "if", "for", "while"}
STRIP = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
                   re.S)


def strip(text):
    return STRIP.sub(lambda m: " " if m.group(0)[0] in "/'" else '""', text)


def declared(header):
    """Names of public functions declared in `header`, by a scope walk."""
    text, names = strip(header.read_text()), set()
    scopes, stmt, i = [("namespace", None, True)], "", 0
    while i < len(text):
        c = text[i]
        if c == "#":  # preprocessor line
            i = text.find("\n", i)
            i = len(text) if i < 0 else i
            continue
        if c in ";{}":
            head = re.sub(r"template\s*<[^;{]*?>\s*", "", stmt).strip()
            kind = re.match(r"(namespace|class|struct|union|enum)\b", head)
            public = scopes[-1][2]
            if c in ";{" and public and not re.match(r"(using|typedef|friend)\b", head):
                m = re.match(r"([^=(]*?)\b([A-Za-z_]\w*)\s*\(", head)
                if m and not kind and m.group(2) not in NOT_FUNCTIONS \
                        and m.group(2) != scopes[-1][1] and not m.group(2).isupper():
                    names.add(m.group(2))
            if c == "{":
                if kind and kind.group(1) in ("namespace", "class", "struct"):
                    name = re.findall(r"\w+", head)[1:2] or [None]
                    scopes.append((kind.group(1), name[0],
                                   kind.group(1) != "class"))
                else:  # function body, enum, initializer: skip it whole
                    depth = 1
                    while depth and i + 1 < len(text):
                        i += 1
                        depth += {"{": 1, "}": -1}.get(text[i], 0)
                    if not kind and "(" in head:
                        stmt = ""
                    i += 1
                    continue
            elif c == "}" and len(scopes) > 1:
                scopes.pop()
            stmt = ""
        elif c == ":" and re.fullmatch(r"\s*(public|private|protected)\s*", stmt):
            scopes[-1] = scopes[-1][:2] + (stmt.strip() == "public",)
            stmt = ""
        else:
            stmt += c
        i += 1
    return names


HEAD = re.compile(r"[\w:<>,*&\s\[\]]+")
CALL_WORDS = re.compile(r"\b(return|else|case|throw|new|delete|co_return|do)\b")
ACCESS = re.compile(r"\b(public|private|protected)\s*:|template\s*<[^;{}]*>")


def used(text, word):
    """True when `word` occurs in `text` other than as a declaration or
    definition head (a bare type-and-name statement prefix before '(')."""
    for m in word.finditer(text):
        start = max(text.rfind(c, 0, m.start()) for c in ";{}") + 1
        before = ACCESS.sub("", text[start:m.start()]).strip()
        if not (before and HEAD.fullmatch(before) and not CALL_WORDS.search(before)
                and re.match(r"\s*\(", text[m.end():])):
            return True
    return False


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    def files(*dirs):  # path -> (stripped text, its words)
        out = {}
        for p in (q for d in dirs for q in (root / d).rglob("*")):
            if p.suffix in SOURCE_EXT:
                text = strip(p.read_text())
                out[p] = (text, set(re.findall(r"\w+", text)))
        return out
    production, tests = files("src", "tools", "examples", "bench"), files("tests")
    flagged = {}
    for header in sorted((root / "src").rglob("*.hpp")):
        module = {header, header.with_suffix(".cpp")}
        for name in declared(header):
            word = re.compile(r"\b%s\b" % re.escape(name))
            if any(name in words and (p not in module or used(t, word))
                   for p, (t, words) in production.items()):
                continue
            if any(name in words for _, words in tests.values()):
                flagged.setdefault(name, header.relative_to(root))
    allowed = ACCESSORS | DEFERRED
    unexpected = sorted(set(flagged) - allowed)
    for name in unexpected:
        print(f"TEST-ONLY  {name}  ({flagged[name]})")
    for name in sorted(allowed - set(flagged)):
        print(f"stale allowlist entry: {name}")
    print(f"{len(flagged)} test-only names, {len(unexpected)} not allowlisted")
    if unexpected or allowed - set(flagged):
        print("delete each TEST-ONLY function, move it into tests/, or list an "
              "observation accessor in ACCESSORS; drop stale entries")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
