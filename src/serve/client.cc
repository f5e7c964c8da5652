#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tj::serve {

ServeClient::~ServeClient() { Close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status ServeClient::Connect(const std::string& socket_path) {
  if (fd_ >= 0) return Status::Internal("ServeClient already connected");
  if (socket_path.size() >= sizeof(sockaddr_un::sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("connect '" + socket_path +
                           "': " + std::strerror(err));
  }
  fd_ = fd;
  return Status::OK();
}

Result<JsonValue> ServeClient::Call(const JsonValue& request) {
  TJ_ASSIGN_OR_RETURN(const std::string raw, CallRaw(request.Serialize()));
  return JsonValue::Parse(raw);
}

Result<std::string> ServeClient::CallRaw(std::string_view payload) {
  if (fd_ < 0) return Status::Internal("ServeClient not connected");
  TJ_RETURN_IF_ERROR(WriteFrame(fd_, payload));
  Result<std::string> response = ReadFrame(fd_);
  if (!response.ok() && response.status().code() == StatusCode::kNotFound) {
    // The daemon closed the connection without answering (shutdown race).
    return Status::IOError("server closed the connection before responding");
  }
  return response;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace tj::serve
