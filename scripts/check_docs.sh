#!/usr/bin/env bash
# Docs consistency gate (run by the CI docs job, and locally before
# shipping doc changes):
#
#   1. Markdown link check — every relative [text](target) link in
#      README.md and docs/*.md must resolve to a file in the repo.
#   2. Source-path check — every `src/...`, `tests/...`, `bench/...`,
#      `tools/...`, `scripts/...` path mentioned in those docs must exist
#      ({a,b} brace groups are expanded), so the paper map and
#      architecture doc cannot point at renamed files.
#   3. Flag drift — every --flag the CLI binaries (dcc_run, dccd,
#      dcc_load) advertise in --help must be documented in README.md, and
#      every --flag README's tables document must be accepted by at least
#      one of the three.
#   4. Registry drift — every mobility model `dcc_run --list` reports,
#      and every dynamics driver key it names, must appear in README.md.
#   5. Environment drift — every DCC_... name README.md, docs/*.md or the
#      repository's skill notes (SKILL.md files under a hidden skills/
#      directory at the root) mention must still appear as a whole token in
#      src/, tools/, bench/ or CMakeLists.txt, so the docs cannot advertise
#      a knob the code stopped reading. Prefix mentions such as
#      DCC_ENGINE_* are skipped.
#   6. Bench and test names — every bench_<name> those same docs mention
#      must be bench/bench_<name>.cc, scripts/bench_<name>.py or bench_e2e,
#      and every <name>_test must be tests/<name>_test.cc, so a deleted
#      bench or test cannot linger as a bare name (check 2 sees only
#      paths). Prefix mentions such as bench_fig* are skipped.
#   7. Markdown citations in code — every *.md name mentioned in src/,
#      bench/, tests/, tools/ or examples/ must resolve at the repository
#      root, under docs/, or beside the file that mentions it, so a comment
#      cannot send readers to a document that does not exist.
#   8. Qualified names — every Class::member README.md, docs/*.md or the
#      skill notes name must appear as a whole word in a header under src/
#      that declares `class Class` or `struct Class`, so the docs cannot
#      name a member the code dropped. Of a longer chain
#      (sinr::Network::Gain) the last two parts count; a lowercase first
#      part is a namespace (scenario::RunScenario) and is skipped.
#   9. Bare names — every name in backticks made of two or more
#      capitalised parts (`FarFieldPyramid`, `RunScenario`) those same docs
#      mention must appear as a whole word in src/, tools/, bench/, tests/
#      or examples/, so the docs cannot name a class or function the code
#      dropped (check 8 sees only Class::member names).
#
# Usage: scripts/check_docs.sh [path-to-dcc_run]   (default: build/dcc_run;
# dccd and dcc_load are expected next to it)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${1:-$ROOT/build/dcc_run}"

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

DOCS=("$ROOT/README.md" "$ROOT"/docs/*.md)

# --- 1. relative markdown links ---------------------------------------------
for doc in "${DOCS[@]}"; do
  dir="$(dirname "$doc")"
  while IFS= read -r link; do
    case "$link" in
      http://* | https://* | mailto:*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$ROOT/$target" ]; then
      err "$(basename "$doc"): broken link -> $link"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done

# --- 2. referenced source paths ---------------------------------------------
expand_braces() {
  # "src/a/{b,c}.{h,cc}" -> the four concrete paths; paths without braces
  # pass through. Groups expand left to right.
  local path="$1"
  if [[ "$path" == *"{"*"}"* ]]; then
    local prefix="${path%%\{*}" rest="${path#*\{}"
    local group="${rest%%\}*}" suffix="${rest#*\}}"
    local alt
    IFS=',' read -ra alts <<< "$group"
    for alt in "${alts[@]}"; do
      expand_braces "${prefix}${alt}${suffix}"
    done
  else
    echo "$path"
  fi
}

for doc in "${DOCS[@]}"; do
  while IFS= read -r ref; do
    while IFS= read -r path; do
      # Directories, files, and extension-less stems ("sinr/engine" for
      # engine.{h,cc}) all count as resolved.
      if [ ! -e "$ROOT/$path" ] && ! compgen -G "$ROOT/$path.*" > /dev/null; then
        err "$(basename "$doc"): references missing path $ref"
        break
      fi
    done < <(expand_braces "$ref")
  done < <(grep -oE '(src|tests|bench|tools|scripts)/[A-Za-z0-9_/.{,}-]*[A-Za-z0-9_}]' "$doc" | sort -u)
done

# --- 3. --help flags vs README ----------------------------------------------
if [ ! -x "$BIN" ]; then
  err "dcc_run binary not found at $BIN (build first, or pass its path)"
  exit 1
fi
BINDIR="$(dirname "$BIN")"

help_out="$("$BIN" --help)" || { err "dcc_run --help failed"; exit 1; }
list_out="$("$BIN" --list)" || { err "dcc_run --list failed"; exit 1; }

# Every CLI's advertised flags must be documented; README's flag-table
# rows ("| `--flag...`") must be advertised by at least one CLI. Prose
# also mentions cmake/ctest flags, which is why only table rows count.
all_help="$help_out"
for tool in dccd dcc_load; do
  if [ ! -x "$BINDIR/$tool" ]; then
    err "$tool binary not found next to $BIN (build first)"
    continue
  fi
  tool_help="$("$BINDIR/$tool" --help)" || { err "$tool --help failed"; continue; }
  all_help="$all_help
$tool_help"
  while IFS= read -r flag; do
    grep -qF -- "$flag" "$ROOT/README.md" ||
      err "README.md does not document $flag (advertised by $tool --help)"
  done < <(grep -oE -- '--[a-z][a-z-]*' <<< "$tool_help" | sort -u)
done

help_flags="$(grep -oE -- '--[a-z][a-z-]*' <<< "$help_out" | sort -u)"
readme_flags="$(grep -E '^\| *`--' "$ROOT/README.md" |
                grep -oE -- '--[a-z][a-z-]*' | sort -u)"

while IFS= read -r flag; do
  grep -qF -- "$flag" "$ROOT/README.md" ||
    err "README.md does not document $flag (advertised by dcc_run --help)"
done <<< "$help_flags"

while IFS= read -r flag; do
  grep -qF -- "$flag" <<< "$all_help" ||
    err "README.md documents $flag which no CLI --help advertises"
done <<< "$readme_flags"

# --- 4. --list registries vs README -----------------------------------------
models="$(sed -n '/^mobility models/,$p' <<< "$list_out" |
          grep -E '^  [a-z_]+$' | tr -d ' ')"
if [ -z "$models" ]; then
  err "dcc_run --list prints no mobility models section"
fi
while IFS= read -r model; do
  [ -z "$model" ] && continue
  grep -qE "(^|[^a-z_])${model}([^a-z_]|$)" "$ROOT/README.md" ||
    err "README.md does not mention mobility model '$model' (from --list)"
done <<< "$models"

driver_keys="$(grep -oE 'driver keys: [a-z_, ]+' <<< "$list_out" |
               head -1 | sed 's/driver keys: //; s/,/ /g')"
for key in $driver_keys; do
  grep -qF -- "$key" "$ROOT/README.md" ||
    err "README.md does not document dynamics driver key '$key'"
  grep -qF -- "$key" <<< "$help_out" ||
    err "dcc_run --help does not document dynamics driver key '$key'"
done

# --- 5. DCC_ environment names vs the code -----------------------------------
DOCS_AND_SKILLS=("${DOCS[@]}")
for skill in "$ROOT"/.[!.]*/skills/*/SKILL.md; do
  [ -f "$skill" ] && DOCS_AND_SKILLS+=("$skill")
done
while IFS=: read -r doc name; do
  # A trailing '*' or '_' marks a prefix mention, not a variable.
  case "$name" in
    *'*' | *_) continue ;;
  esac
  grep -rqwF -- "$name" "$ROOT/src" "$ROOT/tools" "$ROOT/bench" \
      "$ROOT/CMakeLists.txt" ||
    err "$(basename "$doc"): mentions $name, which nothing in src/, tools/, bench/ or CMakeLists.txt names"
done < <(grep -oHE 'DCC_[A-Z0-9_]+[*]?' "${DOCS_AND_SKILLS[@]}" | sort -u)

# --- 6. bench and test names vs the tree -------------------------------------
while IFS=: read -r doc name; do
  case "$name" in
    *'*' | bench_e2e) continue ;;
  esac
  [ -e "$ROOT/bench/$name.cc" ] || [ -e "$ROOT/scripts/$name.py" ] ||
    err "$(basename "$doc"): mentions $name, which is neither bench/$name.cc nor scripts/$name.py"
done < <(grep -oHP '(?<!\w)bench_\w*\*?' "${DOCS_AND_SKILLS[@]}" | sort -u)
while IFS=: read -r doc name; do
  [ -e "$ROOT/tests/$name.cc" ] ||
    err "$(basename "$doc"): mentions $name, which is not tests/$name.cc"
done < <(grep -oHP '\w+_test(?![\w*])' "${DOCS_AND_SKILLS[@]}" | sort -u)

# --- 7. *.md names cited by the code -----------------------------------------
while IFS=: read -r file name; do
  name="${name#/}"
  [ -e "$ROOT/$name" ] || [ -e "$ROOT/docs/$name" ] ||
    [ -e "$(dirname "$file")/$name" ] ||
    err "${file#"$ROOT"/}: mentions $name, which is not at the root, under docs/ or beside it"
done < <(grep -roHE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' "$ROOT/src" "$ROOT/bench" \
           "$ROOT/tests" "$ROOT/tools" "$ROOT/examples" | sort -u)

# --- 8. Class::member names vs the headers that declare the class -----------
mapfile -t HEADERS < <(find "$ROOT/src" -name '*.h' | sort)
while IFS=: read -r doc name; do
  member="${name##*::}"
  owner="${name%::*}"
  owner="${owner##*::}"
  case "$owner" in
    [a-z]*) continue ;;  # a namespace
  esac
  found=0
  while IFS= read -r header; do
    if grep -qw -- "$member" "$header"; then
      found=1
      break
    fi
  done < <(grep -lE "(^|[^A-Za-z0-9_])(class|struct)[[:space:]]+${owner}([^A-Za-z0-9_]|\$)" \
             "${HEADERS[@]}")
  [ "$found" -eq 1 ] ||
    err "$(basename "$doc"): mentions $owner::$member, which no header under src/ declaring class or struct $owner names"
done < <(grep -oHE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
           "${DOCS_AND_SKILLS[@]}" | sort -u)

# --- 9. bare CamelCase names vs the code -------------------------------------
while IFS=: read -r doc name; do
  name="${name//\`/}"
  grep -rqwF -- "$name" "$ROOT/src" "$ROOT/tools" "$ROOT/bench" \
      "$ROOT/tests" "$ROOT/examples" ||
    err "$(basename "$doc"): mentions $name, which nothing in src/, tools/, bench/, tests/ or examples/ names"
done < <(grep -oHE '`[A-Z][a-z0-9]+([A-Z][a-z0-9]*)+`' "${DOCS_AND_SKILLS[@]}" |
           sort -u)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} docs, $(wc -l <<< "$help_flags") flags, $(wc -l <<< "$models") mobility models)"
