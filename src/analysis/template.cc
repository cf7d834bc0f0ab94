#include "analysis/template.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace mdbs::analysis {

namespace {

// Non-throwing full-string integer parse; the repo's no-exceptions idiom.
bool ParseInt(const std::string& s, int64_t* out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

// Splits on whitespace; drops everything from '#' to end of line first.
std::vector<std::string> Tokenize(const std::string& line) {
  std::string stripped = line.substr(0, line.find('#'));
  std::istringstream in(stripped);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

// Parses "key=value" into its parts; returns false when '=' is absent.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

StatusOr<TemplateOp> ParseAccess(const std::string& token, int line_no) {
  auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": bad access '" + token + "': " + why);
  };
  if (token.size() < 4) return bad("too short");
  OpType type;
  if (token[0] == 'r') {
    type = OpType::kRead;
  } else if (token[0] == 'w') {
    type = OpType::kWrite;
  } else {
    return bad("must start with 'r' or 'w'");
  }
  size_t at = token.find("@s");
  if (at == std::string::npos || at == 1) {
    return bad("expected <class>@s<site>");
  }
  int64_t key_class = 0;
  int64_t site = 0;
  if (!ParseInt(token.substr(1, at - 1), &key_class) ||
      !ParseInt(token.substr(at + 2), &site)) {
    return bad("non-numeric class or site");
  }
  if (key_class < 0 || site < 0) return bad("negative class or site");
  return TemplateOp{SiteId(site), key_class, type};
}

}  // namespace

std::string TemplateOp::ToString() const {
  std::string s(OpTypeName(type));
  s.append(std::to_string(key_class)).append("@").append(mdbs::ToString(site));
  return s;
}

std::vector<SiteId> TxnTemplate::Sites() const {
  std::vector<SiteId> sites;
  for (const TemplateOp& op : ops) {
    bool seen = false;
    for (SiteId site : sites) {
      if (site == op.site) seen = true;
    }
    if (!seen) sites.push_back(op.site);
  }
  return sites;
}

bool TxnTemplate::TouchesSite(SiteId site) const {
  for (const TemplateOp& op : ops) {
    if (op.site == site) return true;
  }
  return false;
}

bool TxnTemplate::ReadOnlyAt(SiteId site) const {
  for (const TemplateOp& op : ops) {
    if (op.site == site && op.type == OpType::kWrite) return false;
  }
  return true;
}

std::string TxnTemplate::ToString() const {
  std::string s = "template " + name;
  char buf[32];
  std::snprintf(buf, sizeof(buf), " weight=%g :", weight);
  s += buf;
  for (const TemplateOp& op : ops) s.append(" ").append(op.ToString());
  return s;
}

std::string TemplateMix::ToString() const {
  std::string s = "mix keys_per_class=" + std::to_string(keys_per_class) +
                  " local_txns=" + (local_txns ? "1" : "0") + "\n";
  for (const TxnTemplate& tmpl : templates) s += tmpl.ToString() + "\n";
  return s;
}

StatusOr<TemplateMix> ParseTemplateMix(const std::string& text) {
  TemplateMix mix;
  bool saw_mix_line = false;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     why);
    };
    if (tokens[0] == "mix") {
      if (saw_mix_line) return bad("duplicate mix line");
      saw_mix_line = true;
      for (size_t i = 1; i < tokens.size(); ++i) {
        std::string key, value;
        if (!SplitKeyValue(tokens[i], &key, &value)) {
          return bad("expected key=value, got '" + tokens[i] + "'");
        }
        int64_t number = 0;
        if (!ParseInt(value, &number)) {
          return bad("non-numeric value for '" + key + "'");
        }
        if (key == "keys_per_class") {
          if (number < 1) return bad("keys_per_class must be >=1");
          mix.keys_per_class = number;
        } else if (key == "local_txns") {
          mix.local_txns = number != 0;
        } else {
          return bad("unknown mix option '" + key + "'");
        }
      }
      continue;
    }
    if (tokens[0] != "template") {
      return bad("expected 'template' or 'mix', got '" + tokens[0] + "'");
    }
    if (tokens.size() < 2) return bad("template needs a name");
    TxnTemplate tmpl;
    tmpl.name = tokens[1];
    for (const TxnTemplate& existing : mix.templates) {
      if (existing.name == tmpl.name) {
        return bad("duplicate template name '" + tmpl.name + "'");
      }
    }
    size_t i = 2;
    // Optional weight=<w> before the ':' separator.
    for (; i < tokens.size() && tokens[i] != ":"; ++i) {
      std::string key, value;
      if (!SplitKeyValue(tokens[i], &key, &value) || key != "weight") {
        return bad("expected weight=<w> or ':', got '" + tokens[i] + "'");
      }
      if (!ParseDouble(value, &tmpl.weight)) return bad("non-numeric weight");
      if (!(tmpl.weight > 0)) return bad("weight must be > 0");
    }
    if (i >= tokens.size()) return bad("template needs ': <accesses>'");
    ++i;  // skip ':'
    for (; i < tokens.size(); ++i) {
      StatusOr<TemplateOp> op = ParseAccess(tokens[i], line_no);
      if (!op.ok()) return op.status();
      tmpl.ops.push_back(*op);
    }
    if (tmpl.ops.empty()) return bad("template has no accesses");
    mix.templates.push_back(std::move(tmpl));
  }
  if (mix.templates.empty()) {
    return Status::InvalidArgument("template mix declares no templates");
  }
  return mix;
}

StatusOr<TemplateMix> LoadTemplateMixFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open template file: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return ParseTemplateMix(text);
}

size_t SampleTemplate(const TemplateMix& mix, Rng* rng) {
  double total = 0;
  for (const TxnTemplate& tmpl : mix.templates) total += tmpl.weight;
  double draw = rng->NextDouble() * total;
  for (size_t i = 0; i < mix.templates.size(); ++i) {
    draw -= mix.templates[i].weight;
    if (draw < 0) return i;
  }
  return mix.templates.size() - 1;
}

gtm::GlobalTxnSpec Instantiate(const TxnTemplate& tmpl, const TemplateMix& mix,
                               Rng* rng) {
  gtm::GlobalTxnSpec spec;
  for (const TemplateOp& op : tmpl.ops) {
    DataItemId item(op.key_class * mix.keys_per_class +
                    static_cast<int64_t>(rng->NextBelow(
                        static_cast<uint64_t>(mix.keys_per_class))));
    if (op.type == OpType::kRead) {
      spec.ops.push_back(gtm::GlobalOp::Read(op.site, item));
    } else {
      spec.ops.push_back(gtm::GlobalOp::Write(
          op.site, item, static_cast<int64_t>(rng->NextBelow(1'000'000))));
    }
  }
  return spec;
}

}  // namespace mdbs::analysis
