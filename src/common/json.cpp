#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace mcs {

Json Json::array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json Json::object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
}

bool Json::as_bool() const {
    MCS_CHECK_MSG(is_bool(), "Json: not a bool");
    return bool_;
}

double Json::as_number() const {
    MCS_CHECK_MSG(is_number(), "Json: not a number");
    return number_;
}

const std::string& Json::as_string() const {
    MCS_CHECK_MSG(is_string(), "Json: not a string");
    return string_;
}

std::size_t Json::size() const {
    if (is_array()) {
        return array_.size();
    }
    if (is_object()) {
        return keys_.size();
    }
    throw Error("Json: size() on a non-container");
}

void Json::push_back(Json value) {
    MCS_CHECK_MSG(is_array(), "Json: push_back on a non-array");
    array_.push_back(std::move(value));
}

const Json& Json::at(std::size_t index) const {
    MCS_CHECK_MSG(is_array(), "Json: index access on a non-array");
    MCS_CHECK_MSG(index < array_.size(), "Json: array index out of range");
    return array_[index];
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) {
        type_ = Type::kObject;  // autovivify, like most JSON libraries
    }
    MCS_CHECK_MSG(is_object(), "Json: key access on a non-object");
    auto it = members_.find(key);
    if (it == members_.end()) {
        keys_.push_back(key);
        it = members_.emplace(key, Json()).first;
    }
    return it->second;
}

const Json& Json::at(const std::string& key) const {
    MCS_CHECK_MSG(is_object(), "Json: key access on a non-object");
    const auto it = members_.find(key);
    MCS_CHECK_MSG(it != members_.end(), "Json: missing key '" + key + "'");
    return it->second;
}

bool Json::contains(const std::string& key) const {
    return is_object() && members_.count(key) > 0;
}

const std::vector<std::string>& Json::keys() const {
    MCS_CHECK_MSG(is_object(), "Json: keys() on a non-object");
    return keys_;
}

double Json::number_or(const std::string& key, double fallback) const {
    return contains(key) ? at(key).as_number() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
    return contains(key) ? at(key).as_bool() : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
    return contains(key) ? at(key).as_string() : fallback;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buffer;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void append_number(std::string& out, double value) {
    MCS_CHECK_MSG(std::isfinite(value),
                  "Json: NaN/Inf cannot be serialised");
    // Integers print without a decimal point; everything else with
    // enough digits to round-trip.
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        out += buffer;
    } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        out += buffer;
    }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int level) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * level), ' ');
        }
    };
    switch (type_) {
        case Type::kNull:
            out += "null";
            return;
        case Type::kBool:
            out += bool_ ? "true" : "false";
            return;
        case Type::kNumber:
            append_number(out, number_);
            return;
        case Type::kString:
            append_escaped(out, string_);
            return;
        case Type::kArray: {
            out.push_back('[');
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i > 0) {
                    out.push_back(',');
                }
                newline(depth + 1);
                array_[i].dump_to(out, indent, depth + 1);
            }
            if (!array_.empty()) {
                newline(depth);
            }
            out.push_back(']');
            return;
        }
        case Type::kObject: {
            out.push_back('{');
            for (std::size_t i = 0; i < keys_.size(); ++i) {
                if (i > 0) {
                    out.push_back(',');
                }
                newline(depth + 1);
                append_escaped(out, keys_[i]);
                out.push_back(':');
                if (indent > 0) {
                    out.push_back(' ');
                }
                members_.at(keys_[i]).dump_to(out, indent, depth + 1);
            }
            if (!keys_.empty()) {
                newline(depth);
            }
            out.push_back('}');
            return;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

bool Json::operator==(const Json& other) const {
    if (type_ != other.type_) {
        return false;
    }
    switch (type_) {
        case Type::kNull:
            return true;
        case Type::kBool:
            return bool_ == other.bool_;
        case Type::kNumber:
            return number_ == other.number_;
        case Type::kString:
            return string_ == other.string_;
        case Type::kArray:
            return array_ == other.array_;
        case Type::kObject:
            return keys_ == other.keys_ && members_ == other.members_;
    }
    return false;
}

namespace {

// Recursive-descent JSON parser.
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document() {
        Json value = parse_value();
        skip_whitespace();
        MCS_CHECK_MSG(position_ == text_.size(),
                      error_context("trailing characters after document"));
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw Error(error_context(message));
    }

    std::string error_context(const std::string& message) const {
        return "Json::parse: " + message + " at offset " +
               std::to_string(position_);
    }

    void skip_whitespace() {
        while (position_ < text_.size() &&
               (text_[position_] == ' ' || text_[position_] == '\t' ||
                text_[position_] == '\n' || text_[position_] == '\r')) {
            ++position_;
        }
    }

    char peek() {
        skip_whitespace();
        if (position_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[position_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++position_;
    }

    bool try_consume(const std::string& literal) {
        skip_whitespace();
        if (text_.compare(position_, literal.size(), literal) == 0) {
            position_ += literal.size();
            return true;
        }
        return false;
    }

    Json parse_value() {
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                // Each nesting level is a native stack frame: refuse depth
                // beyond the documented cap instead of overflowing.
                if (depth_ == Json::kMaxParseDepth) {
                    fail("nesting deeper than " +
                         std::to_string(Json::kMaxParseDepth) + " levels");
                }
                ++depth_;
                Json value = c == '{' ? parse_object() : parse_array();
                --depth_;
                return value;
            }
            case '"':
                return Json(parse_string());
            case 't':
                if (try_consume("true")) {
                    return Json(true);
                }
                fail("invalid literal");
            case 'f':
                if (try_consume("false")) {
                    return Json(false);
                }
                fail("invalid literal");
            case 'n':
                if (try_consume("null")) {
                    return Json();
                }
                fail("invalid literal");
            default:
                return parse_number();
        }
    }

    Json parse_object() {
        expect('{');
        Json object = Json::object();
        if (peek() == '}') {
            ++position_;
            return object;
        }
        for (;;) {
            const std::string key = parse_string();
            expect(':');
            object[key] = parse_value();
            const char c = peek();
            if (c == ',') {
                ++position_;
                continue;
            }
            if (c == '}') {
                ++position_;
                return object;
            }
            fail("expected ',' or '}' in object");
        }
    }

    Json parse_array() {
        expect('[');
        Json array = Json::array();
        if (peek() == ']') {
            ++position_;
            return array;
        }
        for (;;) {
            array.push_back(parse_value());
            const char c = peek();
            if (c == ',') {
                ++position_;
                continue;
            }
            if (c == ']') {
                ++position_;
                return array;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (position_ < text_.size()) {
            const char c = text_[position_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (position_ >= text_.size()) {
                break;
            }
            const char escape = text_[position_++];
            switch (escape) {
                case '"':
                    out.push_back('"');
                    break;
                case '\\':
                    out.push_back('\\');
                    break;
                case '/':
                    out.push_back('/');
                    break;
                case 'b':
                    out.push_back('\b');
                    break;
                case 'f':
                    out.push_back('\f');
                    break;
                case 'n':
                    out.push_back('\n');
                    break;
                case 'r':
                    out.push_back('\r');
                    break;
                case 't':
                    out.push_back('\t');
                    break;
                case 'u': {
                    if (position_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = text_[position_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("invalid \\u escape");
                        }
                    }
                    // Encode the code point as UTF-8 (BMP only; surrogate
                    // pairs are passed through as-is, adequate for configs).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default:
                    fail("invalid escape character");
            }
        }
        fail("unterminated string");
    }

    Json parse_number() {
        skip_whitespace();
        const std::size_t start = position_;
        if (position_ < text_.size() && text_[position_] == '-') {
            ++position_;
        }
        while (position_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
                text_[position_] == '.' || text_[position_] == 'e' ||
                text_[position_] == 'E' || text_[position_] == '+' ||
                text_[position_] == '-')) {
            ++position_;
        }
        if (start == position_) {
            fail("expected a value");
        }
        const std::string token = text_.substr(start, position_ - start);
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            fail("invalid number '" + token + "'");
        }
        return Json(value);
    }

    const std::string& text_;
    std::size_t position_ = 0;
    std::size_t depth_ = 0;  // open arrays/objects around position_
};

}  // namespace

Json Json::parse(const std::string& text) {
    Parser parser(text);
    return parser.parse_document();
}

Json read_json_file(const std::string& path) {
    std::ifstream in(path);
    MCS_CHECK_MSG(in.good(), "cannot open JSON file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return Json::parse(buffer.str());
}

void write_json_file(const std::string& path, const Json& value) {
    std::ofstream out(path);
    MCS_CHECK_MSG(out.good(), "cannot open JSON file for writing: " + path);
    out << value.dump(2) << '\n';
    MCS_CHECK_MSG(out.good(), "error while writing JSON file: " + path);
}

}  // namespace mcs
