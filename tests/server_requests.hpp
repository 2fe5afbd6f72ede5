// Request helpers for InferenceServer tests.
//
// InferenceServer has one completion path, the try_submit() callback.
// Tests that want a request's output as a value bridge that callback to a
// future here; a refused request throws, so a test can never pass on a
// sample that never ran.
#pragma once

#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "serve/inference_server.hpp"
#include "tensor/error.hpp"

namespace pit::test {

/// Submits one sample and returns a future for its output (or its
/// execution error). Throws pit::Error when try_submit refuses the request
/// (queue full or server shut down).
inline std::future<Tensor> submit_future(serve::InferenceServer& server,
                                         Tensor input) {
  auto result = std::make_shared<std::promise<Tensor>>();
  std::future<Tensor> out = result->get_future();
  const bool accepted = server.try_submit(
      std::move(input), [result](Tensor&& y, std::exception_ptr err) {
        if (err != nullptr) {
          result->set_exception(err);
        } else {
          result->set_value(std::move(y));
        }
      });
  PIT_CHECK(accepted, "submit_future: InferenceServer::try_submit refused "
                      "the request (queue full or shut down)");
  return out;
}

/// Blocking form: waits for the output and rethrows an execution error.
inline Tensor submit_blocking(serve::InferenceServer& server, Tensor input) {
  return submit_future(server, std::move(input)).get();
}

}  // namespace pit::test
