#!/usr/bin/env bash
# Config-knob audit: every field of the configuration structs below must be
# set by some code outside the header that declares it (src/, bench/,
# perfbench/, examples/ or tests/). A field nothing sets is a constant
# dressed as a knob: it widens the configuration space the counter
# fingerprints are meant to cover without anything measuring it. Make it a
# named constant in the layer that reads it, or list it in ALLOW below with
# a one-line reason.
#
# A setter is any of `.f =`, `->f =`, `.f.<member> =` or `.f.push_back(`.
# Matching is by field name, so a setter of a same-named field in another
# struct also counts: the audit can miss an unset field, never flag a set one.
#
# Usage: scripts/config_audit.sh    (exit 0 = clean, 1 = unset fields listed)
set -euo pipefail
cd "$(dirname "$0")/.."

STRUCTS=(
  src/proto/config.hpp:ProtocolConfig
  src/proto/config.hpp:HostCostModel
  src/dsm/config.hpp:DsmConfig
  src/kv/kv.hpp:KvConfig
  src/member/member.hpp:MemberConfig
  src/svc/svc.hpp:BrokerConfig
  src/coll/coll.hpp:CollConfig
  src/rma/rma.hpp:WindowConfig
  src/trace/trace.hpp:TraceConfig
  src/net/switch.hpp:SwitchConfig
  src/net/topology.hpp:TopologyConfig
  src/net/nic.hpp:NicConfig
  src/core/api.hpp:ClusterConfig
  src/apps/app.hpp:AppParams
  src/net/channel.hpp:FaultModel
  src/net/channel.hpp:GilbertElliott
  src/core/microbench.hpp:MicroParams
)

# Struct::field (or Struct::* for every field) and a one-line reason. Fields
# listed here may have zero setters.
ALLOW=(
  "HostCostModel::*  calibration record (DESIGN §6); offload() is a preset over it"
  "DsmConfig::fault_cost  DSM calibration record (DESIGN §6)"
  "DsmConfig::twin_ns_per_byte  DSM calibration record (DESIGN §6)"
  "DsmConfig::diff_ns_per_byte  DSM calibration record (DESIGN §6)"
  "DsmConfig::page_bookkeeping_cost  DSM calibration record (DESIGN §6)"
  "DsmConfig::msg_handling_cost  DSM calibration record (DESIGN §6)"
  "CollConfig::combine_ns_per_byte  collective calibration record (DESIGN §16)"
  "CollConfig::copy_ns_per_byte  collective calibration record (DESIGN §16)"
  "DsmConfig::mailbox_bytes  read by perfbench's dsm-radix workload"
  "TraceConfig::sample_interval  read by perfbench's trace probe"
)

DIRS=(src bench perfbench examples tests)

allowed() {
  local key="$1" entry
  for entry in "${ALLOW[@]}"; do
    case "${entry%% *}" in
      "$key"|"${key%%::*}::*") return 0 ;;
    esac
  done
  return 1
}

# Prints the data-member names of struct $2 in header $1: one-line
# declarations at the struct's own indentation, skipping comments, static
# members and member functions.
fields_of() {
  awk -v name="$2" '
    !inside && $0 ~ "^struct " name " \\{" { inside = 1; next }
    inside && /^};/ { exit }
    inside && /^  [^ \/}]/ {
      line = $0
      sub(/\/\/.*/, "", line)
      if (line ~ /^  static / || line !~ /;[ \t]*$/) next
      decl = line
      sub(/[ \t]*(=|\{).*/, "", decl)
      sub(/;[ \t]*$/, "", decl)
      if (decl ~ /\(/) next
      n = split(decl, w, /[ \t*&]+/)
      print w[n]
    }' "$1"
}

total=0
unset_count=0
fail=0
for spec in "${STRUCTS[@]}"; do
  header="${spec%%:*}"
  struct="${spec##*:}"
  fields=$(fields_of "$header" "$struct")
  if [ -z "$fields" ]; then
    echo "config_audit: no fields parsed for $struct in $header" >&2
    exit 2
  fi
  for f in $fields; do
    total=$((total + 1))
    pattern="(\.|->)${f}(\.[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]*=([^=]|$)|\.${f}\.push_back\("
    setters=$(grep -rEn --include='*.cpp' --include='*.hpp' --include='*.h' \
                "$pattern" "${DIRS[@]}" | grep -v "^${header}:" | wc -l || true)
    if [ "$setters" -eq 0 ]; then
      unset_count=$((unset_count + 1))
      if ! allowed "$struct::$f"; then
        echo "config_audit: $struct::$f ($header) is set by no code"
        fail=1
      fi
    fi
  done
done

# A stale allowlist entry hides nothing today but would hide a future
# regression under a name that no longer exists.
for entry in "${ALLOW[@]}"; do
  key="${entry%% *}"
  struct="${key%%::*}"
  f="${key##*::}"
  spec=""
  for s in "${STRUCTS[@]}"; do [ "${s##*:}" = "$struct" ] && spec="$s"; done
  if [ -z "$spec" ] ||
     { [ "$f" != "*" ] && ! fields_of "${spec%%:*}" "$struct" | grep -qxF "$f"; }; then
    echo "config_audit: allowlisted $key is not a field"
    fail=1
  fi
done

echo "config_audit: $total fields in ${#STRUCTS[@]} structs, $unset_count with no setter (${#ALLOW[@]} allowlisted)"
exit "$fail"
