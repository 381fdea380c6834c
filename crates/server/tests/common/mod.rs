//! Raw-socket helpers shared by the server's integration tests: a
//! connection opens with the untagged `LoginV2` handshake and speaks tagged
//! frames after it.

#![allow(dead_code)] // each test binary uses its own subset

use std::io;
use std::net::TcpStream;

use phoenix_wire::frame::{read_frame, read_tagged_frame, write_frame, write_tagged_frame};
use phoenix_wire::message::{Request, Response, DEFAULT_WINDOW, PROTOCOL_V2};

/// The login every helper sends.
pub fn login_request(user: &str) -> Request {
    Request::LoginV2 {
        user: user.into(),
        database: "d".into(),
        options: vec![],
        protocol: PROTOCOL_V2,
        window: DEFAULT_WINDOW,
    }
}

/// One untagged round trip: what a connection speaks before it logs in.
pub fn untagged_call(s: &mut TcpStream, req: Request) -> Response {
    write_frame(s, &req.encode()).unwrap();
    Response::decode(&read_frame(s).unwrap()).unwrap()
}

/// Log in; the connection speaks tagged frames from here on.
pub fn login(s: &mut TcpStream) {
    match untagged_call(s, login_request("t")) {
        Response::LoginAckV2 { .. } => {}
        other => panic!("login failed: {other:?}"),
    }
}

/// One tagged round trip carrying `payload` as the message body.
pub fn try_call_raw(s: &mut TcpStream, payload: &[u8]) -> io::Result<Response> {
    let other = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
    write_tagged_frame(s, 1, payload).map_err(|e| other(&e))?;
    let (tag, reply) = read_tagged_frame(s).map_err(|e| other(&e))?;
    assert_eq!(tag, 1, "reply to a tag never sent");
    Response::decode(&reply).map_err(|e| other(&e))
}

pub fn try_call(s: &mut TcpStream, req: Request) -> io::Result<Response> {
    try_call_raw(s, &req.encode())
}

pub fn call(s: &mut TcpStream, req: Request) -> Response {
    try_call(s, req).unwrap()
}

pub fn call_raw(s: &mut TcpStream, payload: &[u8]) -> Response {
    try_call_raw(s, payload).unwrap()
}
