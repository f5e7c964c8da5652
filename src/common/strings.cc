#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace tj {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  ToLowerAsciiInPlace(&out);
  return out;
}

void ToLowerAsciiInPlace(char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) data[i] = ToLowerAsciiChar(data[i]);
}

void AppendLowerAscii(std::string_view s, std::string* out) {
  const size_t base = out->size();
  out->resize(base + s.size());
  // One fused lowercase-copy pass instead of copy-then-lower.
  char* dst = out->data() + base;
  for (size_t i = 0; i < s.size(); ++i) dst[i] = ToLowerAsciiChar(s[i]);
}

std::string_view TrimAscii(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // +1 for the terminating NUL vsnprintf writes.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string EscapeForDisplay(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\'':
        out += "\\'";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (std::isprint(static_cast<unsigned char>(c))) {
          out.push_back(c);
        } else {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        }
    }
  }
  return out;
}

Result<std::string> ParseQuotedDisplay(std::string_view text, size_t* pos) {
  size_t i = *pos;
  if (i >= text.size() || text[i] != '\'') {
    return Status::InvalidArgument("expected opening quote");
  }
  ++i;
  std::string out;
  while (i < text.size()) {
    const char c = text[i++];
    if (c == '\'') {
      *pos = i;
      return out;
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i >= text.size()) break;
    const char esc = text[i++];
    switch (esc) {
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case '\'':
      case '\\':
        out.push_back(esc);
        break;
      case 'x': {
        // Exactly two hex digits: from_chars takes no sign or prefix.
        unsigned value = 0;
        const char* digits = text.data() + i;
        if (text.size() - i < 2 ||
            std::from_chars(digits, digits + 2, value, 16).ptr !=
                digits + 2) {
          return Status::InvalidArgument(
              "\\x escape needs two hex digits at offset " +
              std::to_string(i));
        }
        i += 2;
        out.push_back(static_cast<char>(value));
        break;
      }
      default:
        return Status::InvalidArgument(std::string("unknown escape: \\") +
                                       esc);
    }
  }
  return Status::InvalidArgument("unterminated quoted string");
}

bool ParseByteSize(std::string_view s, size_t* out) {
  s = TrimAscii(s);
  if (s.empty()) return false;
  size_t multiplier = 1;
  const char last = ToLowerAsciiChar(s.back());
  if (last == 'k' || last == 'm' || last == 'g') {
    multiplier = last == 'k' ? (size_t{1} << 10)
                             : last == 'm' ? (size_t{1} << 20)
                                           : (size_t{1} << 30);
    s.remove_suffix(1);
    if (s.empty()) return false;
  }
  size_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (value > (~size_t{0} - (c - '0')) / 10) return false;  // overflow
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (multiplier != 1 && value > ~size_t{0} / multiplier) return false;
  *out = value * multiplier;
  return true;
}

}  // namespace tj
