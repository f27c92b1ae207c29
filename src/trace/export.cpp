#include "trace/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

namespace hpmmap::trace {

namespace {

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_arg(std::string& out, const Arg& a) {
  out += '"';
  json_escape(out, a.name != nullptr ? a.name : "?");
  out += "\":";
  char buf[64];
  switch (a.kind) {
    case Arg::Kind::kU64:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, a.value.u64);
      out += buf;
      break;
    case Arg::Kind::kF64:
      std::snprintf(buf, sizeof(buf), "%.17g", a.value.f64);
      out += buf;
      break;
    case Arg::Kind::kStr:
      out += '"';
      json_escape(out, a.value.str != nullptr ? a.value.str : "");
      out += '"';
      break;
    case Arg::Kind::kNone:
      out += "null";
      break;
  }
}

} // namespace

std::string chrome_json(const std::vector<Event>& events, const ExportOptions& opts) {
  const double us_per_cycle = 1e6 / opts.clock_hz;
  std::string out;
  out.reserve(events.size() * 128 + 16);
  out += "[\n";
  bool first = true;
  char buf[128];
  // Spans already flow-started, so each span's first event gets ph "s"
  // and later ones ph "t" (Perfetto draws the connecting arrows).
  std::set<std::uint32_t> flows_started;
  for (const Event& e : events) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    const Cycles rel = e.ts >= opts.t0 ? e.ts - opts.t0 : 0;
    const double ts_us = static_cast<double>(rel) * us_per_cycle;
    out += "{\"name\":\"";
    json_escape(out, e.name());
    out += "\",\"cat\":\"";
    json_escape(out, name(e.cat));
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%u,\"tid\":%d",
                  static_cast<char>(e.phase), ts_us, static_cast<unsigned>(e.pid),
                  e.core >= 0 ? e.core : -1);
    out += buf;
    if (e.phase == Phase::kComplete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", static_cast<double>(e.dur) * us_per_cycle);
      out += buf;
    }
    if (e.phase == Phase::kInstant) {
      out += ",\"s\":\"t\""; // thread-scoped instant
    }
    out += ",\"args\":{";
    for (std::uint8_t i = 0; i < e.arg_count; ++i) {
      if (i != 0) {
        out += ',';
      }
      append_json_arg(out, e.args[i]);
    }
    if (e.span != 0) {
      if (e.arg_count != 0) {
        out += ',';
      }
      std::snprintf(buf, sizeof(buf), "\"span\":%u", e.span);
      out += buf;
    }
    out += "}}";
    if (e.span != 0) {
      // Companion flow record linking this event into its span's chain.
      const bool start = flows_started.insert(e.span).second;
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"%c\",\"id\":%u,"
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":%d}",
                    start ? 's' : 't', e.span, ts_us, static_cast<unsigned>(e.pid),
                    e.core >= 0 ? e.core : -1);
      out += buf;
    }
  }
  out += "\n]\n";
  return out;
}

namespace {

constexpr std::string_view kCsvHeader = "ts_cycles,dur_cycles,phase,category,name,pid,core,args\n";

void append_csv_row(std::string& out, Cycles ts, Cycles dur, char phase, std::string_view category,
                    std::string_view event_name, Pid pid, std::int32_t core,
                    std::string_view args) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ",%" PRIu64 ",%c,", ts, dur, phase);
  out += buf;
  out += category;
  out += ',';
  out += event_name;
  std::snprintf(buf, sizeof(buf), ",%u,%d,", static_cast<unsigned>(pid), core);
  out += buf;
  out += args;
  out += '\n';
}

} // namespace

std::string csv(const std::vector<Event>& events) {
  std::string out{kCsvHeader};
  out.reserve(out.size() + events.size() * 96);
  char buf[64];
  for (const Event& e : events) {
    std::string args;
    for (std::uint8_t i = 0; i < e.arg_count; ++i) {
      const Arg& a = e.args[i];
      if (i != 0) {
        args += '|';
      }
      args += a.name != nullptr ? a.name : "?";
      switch (a.kind) {
        case Arg::Kind::kU64:
          std::snprintf(buf, sizeof(buf), ":u=%" PRIu64, a.value.u64);
          args += buf;
          break;
        case Arg::Kind::kF64:
          std::snprintf(buf, sizeof(buf), ":f=%.17g", a.value.f64);
          args += buf;
          break;
        case Arg::Kind::kStr:
          args += ":s=";
          args += a.value.str != nullptr ? a.value.str : "";
          break;
        case Arg::Kind::kNone:
          args += ":s=";
          break;
      }
    }
    if (e.span != 0) {
      if (!args.empty()) {
        args += '|';
      }
      std::snprintf(buf, sizeof(buf), "span:u=%u", e.span);
      args += buf;
    }
    append_csv_row(out, e.ts, e.dur, static_cast<char>(e.phase), name(e.cat), e.name(), e.pid,
                   e.core, args);
  }
  return out;
}

std::string csv(const std::vector<CsvEvent>& events) {
  std::string out{kCsvHeader};
  for (const CsvEvent& e : events) {
    std::string args;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i != 0) {
        args += '|';
      }
      args += e.args[i].name;
      args += ':';
      args += e.args[i].kind;
      args += '=';
      args += e.args[i].value;
    }
    append_csv_row(out, e.ts, e.dur, e.phase, e.category, e.name, e.pid, e.core, args);
  }
  return out;
}

bool write_csv(const std::string& path, const std::vector<Event>& events) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    return false;
  }
  const std::string body = csv(events);
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return f.good();
}

std::vector<CsvEvent> parse_csv(std::string_view text) {
  std::vector<CsvEvent> out;
  bool header = true;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{} : text.substr(nl + 1);
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) {
      continue;
    }
    // Split on the first 7 commas; the args field is the remainder (it
    // never contains commas by construction).
    std::array<std::string_view, 8> field{};
    std::size_t nfields = 0;
    while (nfields < 7) {
      const std::size_t comma = line.find(',');
      if (comma == std::string_view::npos) {
        break;
      }
      field[nfields++] = line.substr(0, comma);
      line = line.substr(comma + 1);
    }
    if (nfields < 7) {
      continue; // malformed row
    }
    field[7] = line;

    CsvEvent e;
    e.ts = static_cast<Cycles>(std::strtoull(std::string(field[0]).c_str(), nullptr, 10));
    e.dur = static_cast<Cycles>(std::strtoull(std::string(field[1]).c_str(), nullptr, 10));
    e.phase = field[2].empty() ? 'i' : field[2][0];
    e.category = std::string(field[3]);
    e.name = std::string(field[4]);
    e.pid = static_cast<Pid>(std::strtoul(std::string(field[5]).c_str(), nullptr, 10));
    e.core = static_cast<std::int32_t>(std::strtol(std::string(field[6]).c_str(), nullptr, 10));

    std::string_view args = field[7];
    while (!args.empty()) {
      const std::size_t bar = args.find('|');
      std::string_view tok = args.substr(0, bar);
      args = bar == std::string_view::npos ? std::string_view{} : args.substr(bar + 1);
      const std::size_t colon = tok.find(':');
      if (colon == std::string_view::npos || colon + 2 >= tok.size() || tok[colon + 2] != '=') {
        continue; // malformed arg
      }
      CsvEvent::Arg a;
      a.name = std::string(tok.substr(0, colon));
      a.kind = tok[colon + 1];
      a.value = std::string(tok.substr(colon + 3));
      e.args.push_back(std::move(a));
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::uint32_t span_of(const CsvEvent& e) {
  for (const CsvEvent::Arg& a : e.args) {
    if (a.kind == 'u' && a.name == "span") {
      return static_cast<std::uint32_t>(std::strtoul(a.value.c_str(), nullptr, 10));
    }
  }
  return 0;
}

std::string describe(const Event& e) {
  std::string out;
  char buf[96];
  out += e.name();
  std::snprintf(buf, sizeof(buf), " cat=%.*s ts=%" PRIu64 " dur=%" PRIu64 " pid=%u core=%d",
                static_cast<int>(name(e.cat).size()), name(e.cat).data(), e.ts, e.dur,
                static_cast<unsigned>(e.pid), e.core);
  out += buf;
  if (e.span != 0) {
    std::snprintf(buf, sizeof(buf), " span=%u", e.span);
    out += buf;
  }
  for (std::uint8_t i = 0; i < e.arg_count; ++i) {
    const Arg& a = e.args[i];
    out += ' ';
    out += a.name != nullptr ? a.name : "?";
    switch (a.kind) {
      case Arg::Kind::kU64:
        std::snprintf(buf, sizeof(buf), "=%" PRIu64, a.value.u64);
        out += buf;
        break;
      case Arg::Kind::kF64:
        std::snprintf(buf, sizeof(buf), "=%.17g", a.value.f64);
        out += buf;
        break;
      case Arg::Kind::kStr:
        out += '=';
        out += a.value.str != nullptr ? a.value.str : "";
        break;
      case Arg::Kind::kNone:
        out += "=?";
        break;
    }
  }
  return out;
}

} // namespace hpmmap::trace
